#include "kernel/fd_table.h"

#include <utility>

namespace cider::kernel {

namespace {

/** Drop one slot's reference; the last reference to a description
 *  closes its file object. Called with no table lock held. */
void
release(std::shared_ptr<FileDescription> desc)
{
    if (desc && desc.use_count() == 1 && desc->file)
        desc->file->closed();
}

} // namespace

SyscallResult
FdTable::install(std::shared_ptr<OpenFile> file)
{
    auto desc = std::make_shared<FileDescription>();
    desc->file = std::move(file);
    return installDescription(std::move(desc));
}

SyscallResult
FdTable::installDescription(std::shared_ptr<FileDescription> d)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i]) {
            slots_[i] = std::move(d);
            return SyscallResult::success(static_cast<std::int64_t>(i));
        }
    }
    if (static_cast<int>(slots_.size()) >= maxFds_)
        return SyscallResult::failure(lnx::MFILE);
    slots_.push_back(std::move(d));
    return SyscallResult::success(static_cast<std::int64_t>(slots_.size()) -
                                  1);
}

std::shared_ptr<FileDescription>
FdTable::get(Fd fd) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size())
        return nullptr;
    return slots_[static_cast<std::size_t>(fd)];
}

SyscallResult
FdTable::dup(Fd fd)
{
    auto desc = get(fd);
    if (!desc)
        return SyscallResult::failure(lnx::BADF);
    return installDescription(desc);
}

SyscallResult
FdTable::dup2(Fd fd, Fd new_fd)
{
    auto desc = get(fd);
    if (!desc || new_fd < 0 || new_fd >= maxFds_)
        return SyscallResult::failure(lnx::BADF);
    if (fd == new_fd)
        return SyscallResult::success(new_fd);
    std::shared_ptr<FileDescription> old;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (static_cast<std::size_t>(new_fd) >= slots_.size())
            slots_.resize(static_cast<std::size_t>(new_fd) + 1);
        old = std::exchange(slots_[static_cast<std::size_t>(new_fd)],
                            std::move(desc));
    }
    release(std::move(old));
    return SyscallResult::success(new_fd);
}

SyscallResult
FdTable::close(Fd fd)
{
    std::shared_ptr<FileDescription> desc;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size())
            return SyscallResult::failure(lnx::BADF);
        desc = std::move(slots_[static_cast<std::size_t>(fd)]);
    }
    if (!desc)
        return SyscallResult::failure(lnx::BADF);
    release(std::move(desc));
    return SyscallResult::success();
}

void
FdTable::forkFrom(const FdTable &parent)
{
    std::scoped_lock lock(mu_, parent.mu_);
    slots_ = parent.slots_;
}

void
FdTable::closeAll()
{
    std::vector<std::shared_ptr<FileDescription>> gone;
    {
        std::lock_guard<std::mutex> lock(mu_);
        gone.swap(slots_);
    }
    for (auto &slot : gone)
        release(std::move(slot));
}

void
FdTable::closeCloexec()
{
    std::vector<std::shared_ptr<FileDescription>> gone;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &slot : slots_)
            if (slot && slot->cloexec)
                gone.push_back(std::move(slot));
    }
    for (auto &slot : gone)
        release(std::move(slot));
}

} // namespace cider::kernel
