/**
 * @file
 * /proc/cider nodes read like files: on a booted system with a
 * published FleetSoak report, reading any node in small chunks yields
 * exactly the text one large read returns, and the read after the
 * last chunk returns 0 (EOF).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cider_system.h"
#include "core/fleet.h"
#include "kernel/file.h"
#include "kernel/kernel.h"

namespace cider::core {
namespace {

using kernel::Fd;
using kernel::SyscallResult;

class ProcNodeRead : public ::testing::TestWithParam<const char *>
{
  protected:
    ProcNodeRead()
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        sys_ = std::make_unique<CiderSystem>(opts);
        FleetOptions fleet;
        fleet.sessions = 6;
        fleet.maxActive = 6;
        fleet.rounds = 3;
        FleetSoak(*sys_, fleet).run();
        reader_ = &sys_->kernel().createProcess("proc.reader").mainThread();
    }

    /** Open the node, read it @p chunk bytes at a time until a read
     *  returns 0 or @p max_reads reads have run. */
    std::string
    readNode(std::size_t chunk, std::size_t max_reads, bool *hit_eof)
    {
        kernel::Kernel &k = sys_->kernel();
        kernel::Thread &t = *reader_;
        kernel::ThreadScope scope(t);
        std::string path = std::string("/proc/cider/") + GetParam();
        SyscallResult fd = k.sysOpen(t, path, kernel::oflag::RDONLY);
        EXPECT_TRUE(fd.ok()) << path;
        std::string text;
        *hit_eof = false;
        for (std::size_t i = 0; i < max_reads && !*hit_eof; ++i) {
            Bytes buf;
            SyscallResult r =
                k.sysRead(t, static_cast<Fd>(fd.value), buf, chunk);
            EXPECT_TRUE(r.ok());
            text.append(buf.begin(), buf.end());
            *hit_eof = r.value == 0;
        }
        k.sysClose(t, static_cast<Fd>(fd.value));
        return text;
    }

    std::unique_ptr<CiderSystem> sys_;
    /** One reader for both opens, so the vm node lists the same
     *  processes each time. */
    kernel::Thread *reader_ = nullptr;
};

TEST_P(ProcNodeRead, ChunkedReadsConcatenateToOneReadThenEof)
{
    bool eof = false;
    std::string whole = readNode(64 * 1024, 1, &eof);
    ASSERT_FALSE(whole.empty());
    ASSERT_LT(whole.size(), 64u * 1024u);

    std::string chunked = readNode(64, whole.size() / 64 + 2, &eof);
    EXPECT_EQ(chunked, whole);
    EXPECT_TRUE(eof) << "no read returned 0";
}

INSTANTIATE_TEST_SUITE_P(AllNodes, ProcNodeRead,
                         ::testing::Values("trapstats", "faults",
                                           "lockorder", "percpu", "vm",
                                           "net", "iokit", "jit",
                                           "fleet"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace cider::core
