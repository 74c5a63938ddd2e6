#include "kernel/device.h"

#include <algorithm>
#include <optional>

namespace cider::kernel {

namespace {

/** An open ProcNode: the text rendered at the first read plus this
 *  open's offset into it. */
class ProcFile : public OpenFile
{
  public:
    explicit ProcFile(ProcNode &node) : node_(node) {}

    std::string kind() const override { return "dev:" + node_.name(); }

    SyscallResult
    read(Thread &, Bytes &out, std::size_t n) override
    {
        if (!text_)
            text_ = node_.render();
        std::size_t take = std::min(n, text_->size() - offset_);
        auto first = text_->begin() + static_cast<std::ptrdiff_t>(offset_);
        out.assign(first, first + static_cast<std::ptrdiff_t>(take));
        offset_ += take;
        return SyscallResult::success(static_cast<std::int64_t>(take));
    }

    PollState
    poll() const override
    {
        return {true, true, false};
    }

  private:
    ProcNode &node_;
    std::optional<std::string> text_;
    std::size_t offset_ = 0;
};

} // namespace

void
Device::setProperty(const std::string &key, const std::string &value)
{
    props_[key] = value;
}

std::string
Device::property(const std::string &key) const
{
    auto it = props_.find(key);
    return it == props_.end() ? std::string() : it->second;
}

SyscallResult
Device::ioctl(Thread &, std::uint64_t, void *)
{
    return SyscallResult::failure(lnx::NOTTY);
}

SyscallResult
Device::read(Thread &, Bytes &, std::size_t)
{
    return SyscallResult::failure(lnx::INVAL);
}

SyscallResult
Device::write(Thread &, const Bytes &)
{
    return SyscallResult::failure(lnx::INVAL);
}

std::shared_ptr<OpenFile>
Device::open()
{
    return std::make_shared<DeviceFile>(*this);
}

std::shared_ptr<OpenFile>
ProcNode::open()
{
    return std::make_shared<ProcFile>(*this);
}

SyscallResult
DeviceFile::read(Thread &t, Bytes &out, std::size_t n)
{
    return dev_.read(t, out, n);
}

SyscallResult
DeviceFile::write(Thread &t, const Bytes &data)
{
    return dev_.write(t, data);
}

SyscallResult
DeviceFile::ioctl(Thread &t, std::uint64_t req, void *arg)
{
    return dev_.ioctl(t, req, arg);
}

PollState
DeviceFile::poll() const
{
    PollState st;
    st.readable = true;
    st.writable = true;
    return st;
}

Device &
DeviceRegistry::add(std::unique_ptr<Device> dev)
{
    devices_.push_back(std::move(dev));
    Device &ref = *devices_.back();
    if (hook_)
        hook_(ref);
    return ref;
}

Device *
DeviceRegistry::find(const std::string &name) const
{
    for (const auto &d : devices_)
        if (d->name() == name)
            return d.get();
    return nullptr;
}

std::vector<Device *>
DeviceRegistry::all() const
{
    std::vector<Device *> out;
    out.reserve(devices_.size());
    for (const auto &d : devices_)
        out.push_back(d.get());
    return out;
}

void
DeviceRegistry::setAddHook(AddHook hook)
{
    hook_ = std::move(hook);
    if (hook_)
        for (const auto &d : devices_)
            hook_(*d);
}

} // namespace cider::kernel
