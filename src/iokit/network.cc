#include "iokit/network.h"

#include <algorithm>
#include <sstream>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"

namespace cider::iokit {

// ---------------------------------------------------------------- fabric

void
NetFabric::link(IONetworkController *controller)
{
    std::lock_guard<std::mutex> lk(mu_);
    controllers_.update([controller](auto &v) { v.push_back(controller); });
}

void
NetFabric::unlink(IONetworkController *controller)
{
    std::lock_guard<std::mutex> lk(mu_);
    controllers_.update([controller](auto &v) {
        auto it = std::find(v.begin(), v.end(), controller);
        if (it != v.end())
            v.erase(it);
    });
}

bool
NetFabric::carry(const kernel::NetFrame &frame)
{
    for (IONetworkController *c : controllers_.read()) {
        if (c->address() == frame.dstAddr) {
            c->deliver(frame);
            return true;
        }
    }
    return false;
}

std::size_t
NetFabric::linkCount() const
{
    return controllers_.read().size();
}

// ------------------------------------------------------------ controller

IONetworkController::IONetworkController(ducttape::KernelCxxRuntime &rt,
                                         IORegistry &registry,
                                         kernel::NetStack &stack,
                                         NetFabric &fabric)
    : IOService(rt, "IONetworkController"), registry_(registry),
      stack_(stack), fabric_(fabric)
{}

bool
IONetworkController::probe(IORegistryEntry &provider)
{
    if (osValueString(provider.property(kLinuxClassKey)) != "network")
        return false;
    kernel::Device *dev = linuxDeviceOf(provider);
    // A NIC without an address cannot join the fabric: fail the probe
    // so a lower-scored personality can take the provider instead.
    return dev && !dev->property("address").empty();
}

bool
IONetworkController::start(IORegistryEntry &provider)
{
    linuxDev_ = linuxDeviceOf(provider);
    if (!linuxDev_)
        return false;
    linuxName_ = linuxDev_->name();
    addr_ = static_cast<kernel::NetAddr>(
        std::stoul(linuxDev_->property("address")));
    if (const std::string depth = linuxDev_->property("tx-depth");
        !depth.empty())
        txDepth_ = std::stoul(depth);

    iface_ = new IONetworkInterface(registry_.runtime(), *this,
                                    linuxName_);
    registry_.attach(iface_, this);

    setProperty("IOClass", std::string("IONetworkController"));
    setProperty("IOProviderClass", std::string("IOLinuxDeviceNode"));
    setProperty("IONetworkAddress",
                static_cast<std::int64_t>(addr_));

    fabric_.link(this);
    stack_.attach(iface_);
    return IOService::start(provider);
}

void
IONetworkController::stop()
{
    if (iface_) {
        stack_.detach(iface_);
        iface_ = nullptr; // released with the registry subtree
    }
    fabric_.unlink(this);
    IOService::stop();
}

bool
IONetworkController::enqueueTx(const kernel::NetFrame &frame)
{
    if (!linkUp_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!linkUp_.load(std::memory_order_relaxed)) {
            // Ring-buffer while the link is down; overflow drops.
            if (txRing_.size() >= txDepth_) {
                counts_.ringDrops.add();
                return false;
            }
            txRing_.push_back(frame);
            return true;
        }
    }

    counts_.txFrames.add();
    counts_.txBytes.add(frame.payload.size());

    // All three sites are evaluated, in this order, before anything is
    // carried: a carried frame's receiver may transmit replies that
    // re-enter enqueueTx and evaluate the sites for themselves.
    if (CIDER_FAULT_POINT("nic.drop")) {
        counts_.faultDrops.add();
        return true; // the wire ate it; the sender cannot tell
    }
    const bool reorder = CIDER_FAULT_POINT("nic.reorder");
    std::optional<kernel::NetFrame> held;
    if (reorder || holding_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lk(mu_);
        if (reorder && !held_) {
            // Hold this frame; it rides out after the next one (an
            // adjacent swap). A retransmit pump always pushes a later
            // frame through, so a held frame cannot be stranded.
            held_ = frame;
            holding_.store(true, std::memory_order_release);
            counts_.heldFrames.add();
            return true;
        }
        held.swap(held_);
        holding_.store(false, std::memory_order_release);
    }
    const bool dup = CIDER_FAULT_POINT("nic.dup");
    if (dup)
        counts_.dupFrames.add();

    carryCharged(frame);
    if (dup)
        carryCharged(frame);
    if (held)
        carryCharged(*held);
    return true;
}

void
IONetworkController::carryCharged(const kernel::NetFrame &frame)
{
    const hw::DeviceProfile &profile = stack_.profile();
    charge(profile.nicLinkLatencyNs +
           frame.payload.size() * profile.nicPerBytePs / 1000);
    fabric_.carry(frame);
}

void
IONetworkController::deliver(const kernel::NetFrame &frame)
{
    counts_.rxFrames.add();
    counts_.rxBytes.add(frame.payload.size());
    stack_.input(frame);
}

bool
IONetworkController::linkUp() const
{
    return linkUp_.load(std::memory_order_acquire);
}

void
IONetworkController::setLink(bool up)
{
    std::deque<kernel::NetFrame> flush;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (linkUp_.load(std::memory_order_relaxed) == up)
            return;
        linkUp_.store(up, std::memory_order_release);
        if (up)
            flush.swap(txRing_);
    }
    // Frames buffered while down leave through the normal TX path
    // (fault sites and cost charging included).
    for (const kernel::NetFrame &f : flush)
        enqueueTx(f);
}

NicStats
IONetworkController::stats() const
{
    NicStats s;
    s.txFrames = counts_.txFrames.load();
    s.txBytes = counts_.txBytes.load();
    s.rxFrames = counts_.rxFrames.load();
    s.rxBytes = counts_.rxBytes.load();
    s.faultDrops = counts_.faultDrops.load();
    s.dupFrames = counts_.dupFrames.load();
    s.heldFrames = counts_.heldFrames.load();
    s.ringDrops = counts_.ringDrops.load();
    return s;
}

std::string
IONetworkController::statsLine() const
{
    NicStats s = stats();
    std::size_t ring;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ring = txRing_.size();
    }
    std::ostringstream os;
    os << linuxName_ << " addr=" << addr_
       << " link=" << (linkUp() ? "up" : "down")
       << " tx=" << s.txFrames << "/" << s.txBytes << "B"
       << " rx=" << s.rxFrames << "/" << s.rxBytes << "B"
       << " drops=" << s.faultDrops << " dup=" << s.dupFrames
       << " held=" << s.heldFrames
       << " ring_drops=" << s.ringDrops
       << " ring=" << ring << "/" << txDepth_;
    return os.str();
}

xnu::kern_return_t
IONetworkController::externalMethod(std::uint32_t selector,
                                    const std::vector<std::int64_t> &input,
                                    std::vector<std::int64_t> &output)
{
    switch (selector) {
      case nicsel::GetStats: {
          NicStats s = stats();
          output.push_back(static_cast<std::int64_t>(s.txFrames));
          output.push_back(static_cast<std::int64_t>(s.rxFrames));
          output.push_back(static_cast<std::int64_t>(s.faultDrops +
                                                     s.ringDrops));
          return xnu::KERN_SUCCESS;
      }
      case nicsel::SetLink:
        if (input.empty())
            return xnu::KERN_INVALID_ARGUMENT;
        setLink(input[0] != 0);
        return xnu::KERN_SUCCESS;
      case nicsel::GetAddress:
        output.push_back(static_cast<std::int64_t>(addr_));
        return xnu::KERN_SUCCESS;
      default:
        return xnu::KERN_FAILURE;
    }
}

void
IONetworkController::registerDriver(ducttape::KernelCxxRuntime &rt,
                                    IOCatalogue &catalogue,
                                    IORegistry &registry,
                                    kernel::NetStack &stack,
                                    NetFabric &fabric)
{
    rt.addStaticConstructor(
        "IONetworkController", [&rt, &catalogue, &registry, &stack,
                                &fabric] {
            OSDictionary match;
            match[kLinuxClassKey] = std::string("network");
            IOCatalogue::IOPersonality personality;
            personality.className = "IONetworkController";
            personality.match = std::move(match);
            personality.probeScore = 1000;
            personality.matchCategory = "net";
            personality.factory =
                [&registry, &stack,
                 &fabric](ducttape::KernelCxxRuntime &runtime)
                -> IOService * {
                return new IONetworkController(runtime, registry,
                                               stack, fabric);
            };
            catalogue.addPersonality(std::move(personality));
        });
}

// ------------------------------------------------------------- interface

IONetworkInterface::IONetworkInterface(ducttape::KernelCxxRuntime &rt,
                                       IONetworkController &controller,
                                       std::string if_name)
    : IOService(rt, "IONetworkInterface"), controller_(controller),
      ifName_(std::move(if_name))
{
    setProperty("IOClass", std::string("IONetworkInterface"));
    setProperty("BSD Name", ifName_);
}

} // namespace cider::iokit
