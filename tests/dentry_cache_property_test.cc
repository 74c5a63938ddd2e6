/**
 * @file
 * Dentry-cache coherence property test.
 *
 * Two Vfs instances receive the exact same random operation script —
 * one with the dentry cache enabled, one with it disabled (the
 * uncached walk is the oracle). After every mutation or probe, the
 * two must agree on lookup outcome, file contents and existence for
 * every path the script has ever mentioned. Any stale cache entry
 * surviving a rename/unlink/rmdir/overlay-add shows up as a
 * divergence within a step or two.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "hw/device_profile.h"
#include "kernel/vfs.h"

namespace cider::kernel {
namespace {

class DentryCacheProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Vfs cached_{hw::DeviceProfile::nexus7()};
    Vfs oracle_{hw::DeviceProfile::nexus7()};

    void
    SetUp() override
    {
        oracle_.setDentryCacheEnabled(false);
    }

    /** Apply one operation to both instances; results must agree. */
    template <typename Fn>
    void
    both(Fn &&fn)
    {
        SyscallResult a = fn(cached_);
        SyscallResult b = fn(oracle_);
        ASSERT_EQ(a.ok(), b.ok());
        ASSERT_EQ(a.err, b.err);
    }

    /** Full agreement check over every path seen so far. */
    void
    agree(const std::vector<std::string> &paths)
    {
        for (const std::string &path : paths) {
            Lookup lc = cached_.lookup(path);
            Lookup lo = oracle_.lookup(path);
            ASSERT_EQ(lc.err, lo.err) << path;
            ASSERT_EQ(lc.inode != nullptr, lo.inode != nullptr)
                << path;
            ASSERT_EQ(lc.leaf, lo.leaf) << path;
            ASSERT_EQ(cached_.exists(path), oracle_.exists(path))
                << path;
            if (lc.inode && lo.inode) {
                ASSERT_EQ(lc.inode->type, lo.inode->type) << path;
                ASSERT_EQ(lc.inode->data, lo.inode->data) << path;
            }
        }
    }
};

TEST_P(DentryCacheProperty, RandomScriptNeverServesStaleEntries)
{
    Rng rng(GetParam());

    // A small, collision-prone namespace: few names means renames and
    // re-creations constantly land on paths the cache has seen.
    const std::vector<std::string> dirs = {"/a", "/b", "/a/c", "/b/d"};
    const std::vector<std::string> files = {
        "/a/x",   "/a/y",   "/b/x",    "/a/c/x",
        "/b/d/y", "/a/../x", "/b/./d/y"};
    std::vector<std::string> universe = dirs;
    universe.insert(universe.end(), files.begin(), files.end());
    universe.push_back("/ovl/x");
    universe.push_back("/ovl/sub/y");

    for (int step = 0; step < 300; ++step) {
        std::uint64_t dice = rng.below(100);
        if (dice < 15) {
            const std::string &d = dirs[rng.below(dirs.size())];
            both([&](Vfs &v) { return v.mkdirAll(d); });
        } else if (dice < 40) {
            const std::string &f = files[rng.below(files.size())];
            Bytes data(1 + rng.below(16),
                       static_cast<std::uint8_t>(step));
            both([&](Vfs &v) { return v.writeFile(f, data); });
        } else if (dice < 55) {
            const std::string &f = files[rng.below(files.size())];
            both([&](Vfs &v) { return v.unlink(f); });
        } else if (dice < 70) {
            const std::string &from = files[rng.below(files.size())];
            const std::string &to = files[rng.below(files.size())];
            both([&](Vfs &v) { return v.rename(from, to); });
        } else if (dice < 80) {
            const std::string &d = dirs[rng.below(dirs.size())];
            both([&](Vfs &v) { return v.rmdir(d); });
        } else if (dice < 85 && step > 100) {
            // Overlay-add mid-run: every path under /ovl changes
            // meaning in one stroke.
            std::string target = rng.below(2) ? "/a" : "/b";
            cached_.addOverlay("/ovl", target);
            oracle_.addOverlay("/ovl", target);
        } else {
            // Pure probe step: reads must also agree.
            const std::string &p =
                universe[rng.below(universe.size())];
            Bytes ca, ob;
            SyscallResult rc = cached_.readFile(p, ca);
            SyscallResult ro = oracle_.readFile(p, ob);
            ASSERT_EQ(rc.ok(), ro.ok()) << p;
            ASSERT_EQ(rc.err, ro.err) << p;
            if (rc.ok()) {
                ASSERT_EQ(ca, ob) << p;
            }
        }
        agree(universe);
    }

    // The cache must have actually been exercised for this test to
    // mean anything.
    EXPECT_GT(cached_.dentryCacheStats().hits, 0u);
    EXPECT_FALSE(oracle_.dentryCacheStats().enabled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DentryCacheProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace cider::kernel
