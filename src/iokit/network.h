/**
 * @file
 * IONetworkController / IONetworkInterface: the simulated NIC family.
 *
 * A bridged Linux device of class "network" matches the controller
 * personality (score 1000, match category "net"). start() spawns an
 * IONetworkInterface child in the registry, links the controller onto
 * the loopback NetFabric, and attaches the interface to the kernel's
 * NetStack as its NetDevice — the paper's pattern of an I/O Kit
 * driver class wrapping a Linux device node, here wrapping the wire.
 *
 * The transmit path is where the simulation's network faults live:
 * FaultRail sites nic.drop (lose the frame), nic.dup (deliver it
 * twice) and nic.reorder (hold the frame and emit it after the next
 * one — an adjacent swap) sit between the TX ring and the fabric.
 * Each carried frame charges the sender's CostClock with the device
 * profile's link latency plus a per-byte serialisation cost, so a
 * seeded storm replays bit-identically in virtual time.
 */

#ifndef CIDER_IOKIT_NETWORK_H
#define CIDER_IOKIT_NETWORK_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "iokit/io_service.h"
#include "iokit/linux_bridge.h"
#include "kernel/net.h"

namespace cider::iokit {

class IONetworkController;

/**
 * The loopback wire: routes a frame to the controller owning the
 * destination address. Delivery is synchronous on the caller's host
 * thread. The controller list is a lock-free snapshot (the mutex only
 * serialises link/unlink), so carry() takes no lock and a delivered
 * frame may transmit replies that re-enter it.
 */
class NetFabric
{
  public:
    void link(IONetworkController *controller);
    void unlink(IONetworkController *controller);

    /** Route to the controller owning frame.dstAddr (hairpin to the
     *  sender is allowed). False when no controller owns the address. */
    bool carry(const kernel::NetFrame &frame);

    std::size_t linkCount() const;

  private:
    std::mutex mu_;
    kernel::SnapshotList<IONetworkController *> controllers_;
};

/** IONetworkController external method selectors. */
namespace nicsel {

inline constexpr std::uint32_t GetStats = 0;   ///< out: tx,rx,drops
inline constexpr std::uint32_t SetLink = 1;    ///< in: 0 down / 1 up
inline constexpr std::uint32_t GetAddress = 2; ///< out: NetAddr

} // namespace nicsel

/** Aggregate counters of one controller (tests + /proc). */
struct NicStats
{
    std::uint64_t txFrames = 0;
    std::uint64_t txBytes = 0;
    std::uint64_t rxFrames = 0;
    std::uint64_t rxBytes = 0;
    std::uint64_t faultDrops = 0;   ///< nic.drop trips
    std::uint64_t dupFrames = 0;    ///< nic.dup extra deliveries
    std::uint64_t heldFrames = 0;   ///< nic.reorder holds
    std::uint64_t ringDrops = 0;    ///< TX ring overflow (link down)
};

class IONetworkInterface;

class IONetworkController : public IOService
{
  public:
    IONetworkController(ducttape::KernelCxxRuntime &rt,
                        IORegistry &registry, kernel::NetStack &stack,
                        NetFabric &fabric);

    const char *className() const override
    {
        return "IONetworkController";
    }

    bool probe(IORegistryEntry &provider) override;
    bool start(IORegistryEntry &provider) override;
    void stop() override;

    xnu::kern_return_t
    externalMethod(std::uint32_t selector,
                   const std::vector<std::int64_t> &input,
                   std::vector<std::int64_t> &output) override;

    kernel::NetAddr address() const { return addr_; }
    const std::string &linuxName() const { return linuxName_; }
    IONetworkInterface *interface() const { return iface_; }
    NicStats stats() const;
    bool linkUp() const;
    void setLink(bool up);

    /**
     * TX entry from the interface: fault sites, ring buffering while
     * the link is down, cost charging, then fabric carry. Lock-free
     * while the link is up and no frame is held for reorder.
     */
    bool enqueueTx(const kernel::NetFrame &frame);

    /** RX from the fabric: accounting, then NetStack::input(). */
    void deliver(const kernel::NetFrame &frame);

    std::string statsLine() const;

    /** Register the controller personality (score 1000, category
     *  "net") for bridged Linux "network"-class devices. */
    static void registerDriver(ducttape::KernelCxxRuntime &rt,
                               IOCatalogue &catalogue,
                               IORegistry &registry,
                               kernel::NetStack &stack,
                               NetFabric &fabric);

  private:
    /** Charge link latency + serialisation, then carry on the fabric. */
    void carryCharged(const kernel::NetFrame &frame);

    /** NicStats, counted per host thread (see HostShardedCounter). */
    struct Counters
    {
        kernel::HostShardedCounter txFrames, txBytes, rxFrames, rxBytes,
            faultDrops, dupFrames, heldFrames, ringDrops;
    };

    IORegistry &registry_;
    kernel::NetStack &stack_;
    NetFabric &fabric_;

    kernel::Device *linuxDev_ = nullptr;
    std::string linuxName_;
    kernel::NetAddr addr_ = 0;
    std::size_t txDepth_ = 16;
    IONetworkInterface *iface_ = nullptr;

    std::atomic<bool> linkUp_{true}; ///< written under mu_
    std::atomic<bool> holding_{false}; ///< held_ is set; written under mu_
    /** Guards the slow path only: txRing_ and held_. */
    mutable std::mutex mu_;
    std::deque<kernel::NetFrame> txRing_; ///< buffered while link down
    std::optional<kernel::NetFrame> held_; ///< nic.reorder swap slot
    Counters counts_;
};

/**
 * The NetDevice face of a controller: what the kernel's NetStack
 * routes frames through. A registry child of its controller.
 */
class IONetworkInterface : public IOService, public kernel::NetDevice
{
  public:
    IONetworkInterface(ducttape::KernelCxxRuntime &rt,
                       IONetworkController &controller,
                       std::string if_name);

    const char *className() const override
    {
        return "IONetworkInterface";
    }

    const std::string &ifName() const override { return ifName_; }
    kernel::NetAddr address() const override
    {
        return controller_.address();
    }
    bool transmit(const kernel::NetFrame &frame) override
    {
        return controller_.enqueueTx(frame);
    }
    std::string statsLine() const override
    {
        return controller_.statsLine();
    }

  private:
    IONetworkController &controller_;
    std::string ifName_;
};

} // namespace cider::iokit

#endif // CIDER_IOKIT_NETWORK_H
