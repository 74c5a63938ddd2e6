/**
 * @file
 * Ablation: duct-taped Mach IPC vs. a hand-written emulation layer.
 *
 * The paper argues duct tape avoids "difficult and error-prone"
 * reimplementation while producing a first-class kernel subsystem.
 * This bench quantifies the runtime side of that trade: message
 * round trips through the duct-taped subsystem (full Mach semantics:
 * rights, spaces, qlimits) against a minimal hand-rolled message
 * queue of the kind a from-scratch port would start from — showing
 * the adaptation layer's overhead is a small constant factor, not a
 * qualitative cost.
 */

#include <deque>
#include <mutex>

#include "bench/bench_util.h"
#include "xnu/mach_ipc.h"

namespace cider::bench {
namespace {

constexpr int kMessages = 5000;

/** The strawman: what a minimal hand-port would look like. */
class NaiveQueue
{
  public:
    void
    send(Bytes msg)
    {
        charge(120); // lock + enqueue
        std::lock_guard<std::mutex> lock(mu_);
        q_.push_back(std::move(msg));
    }

    bool
    receive(Bytes *out)
    {
        charge(120);
        std::lock_guard<std::mutex> lock(mu_);
        if (q_.empty())
            return false;
        *out = std::move(q_.front());
        q_.pop_front();
        return true;
    }

  private:
    std::mutex mu_;
    std::deque<Bytes> q_;
};

} // namespace
} // namespace cider::bench

int
main()
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    ResultTable table("Abl.ducttape", "ns/roundtrip", false);

    // Duct-taped Mach IPC (full rights semantics).
    {
        CostClock clock;
        CostScope scope(clock);
        xnu::MachIpc ipc;
        xnu::SpacePtr space = ipc.createSpace();
        xnu::mach_port_name_t port = 0;
        ipc.portAllocate(*space, xnu::PortRight::Receive, &port);

        std::uint64_t ns = measureVirtual([&] {
            for (int i = 0; i < kMessages; ++i) {
                xnu::MachMessage msg;
                msg.header.remotePort = port;
                msg.header.remoteDisposition =
                    xnu::MsgDisposition::MakeSend;
                msg.header.msgId = i;
                msg.body = {1, 2, 3, 4};
                ipc.msgSend(*space, std::move(msg));
                xnu::MachMessage out;
                ipc.msgReceive(*space, port, out);
            }
        });
        table.set("mach-ipc(duct-taped)", SystemConfig::CiderIos,
                  static_cast<double>(ns) / kMessages);
        table.setBaseline("mach-ipc(duct-taped)",
                          static_cast<double>(ns) / kMessages);
    }

    // The naive strawman (no rights, no spaces, no back-pressure).
    {
        CostClock clock;
        CostScope scope(clock);
        NaiveQueue q;
        std::uint64_t ns = measureVirtual([&] {
            for (int i = 0; i < kMessages; ++i) {
                q.send({1, 2, 3, 4});
                Bytes out;
                q.receive(&out);
            }
        });
        table.set("naive-queue", SystemConfig::CiderIos,
                  static_cast<double>(ns) / kMessages);
        table.setBaseline("naive-queue",
                          static_cast<double>(ns) / kMessages);
    }

    // Right-transfer round trip (functionality the strawman simply
    // lacks: this is what reimplementation would have to grow into).
    {
        CostClock clock;
        CostScope scope(clock);
        xnu::MachIpc ipc;
        xnu::SpacePtr a = ipc.createSpace();
        xnu::SpacePtr b = ipc.createSpace();
        xnu::mach_port_name_t mailbox = 0;
        ipc.portAllocate(*b, xnu::PortRight::Receive, &mailbox);
        xnu::PortPtr mailbox_port;
        ipc.portLookup(*b, mailbox, &mailbox_port);
        xnu::mach_port_name_t mailbox_in_a = 0;
        ipc.insertSendRight(*a, mailbox_port, &mailbox_in_a);
        xnu::mach_port_name_t payload = 0;
        ipc.portAllocate(*a, xnu::PortRight::Receive, &payload);

        std::uint64_t ns = measureVirtual([&] {
            for (int i = 0; i < kMessages; ++i) {
                xnu::MachMessage msg;
                msg.header.remotePort = mailbox_in_a;
                msg.header.remoteDisposition =
                    xnu::MsgDisposition::CopySend;
                xnu::PortDescriptor desc;
                desc.name = payload;
                desc.disposition = xnu::MsgDisposition::MakeSend;
                msg.ports.push_back(desc);
                ipc.msgSend(*a, std::move(msg));
                xnu::MachMessage out;
                ipc.msgReceive(*b, mailbox, out);
                ipc.portDeallocate(*b, out.ports.at(0).name);
            }
        });
        table.set("mach-right-transfer", SystemConfig::CiderIos,
                  static_cast<double>(ns) / kMessages);
        table.setBaseline("mach-right-transfer",
                          static_cast<double>(ns) / kMessages);
    }

    printTables({&table});
    return 0;
}
