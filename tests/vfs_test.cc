/**
 * @file
 * VFS unit tests: path resolution, overlays, and error paths.
 */

#include <gtest/gtest.h>

#include "hw/device_profile.h"
#include "kernel/vfs.h"

namespace cider::kernel {
namespace {

class VfsTest : public ::testing::Test
{
  protected:
    Vfs vfs_{hw::DeviceProfile::nexus7()};
};

TEST_F(VfsTest, MkdirAllAndLookup)
{
    ASSERT_TRUE(vfs_.mkdirAll("/a/b/c").ok());
    Lookup lk = vfs_.lookup("/a/b/c");
    ASSERT_NE(lk.inode, nullptr);
    EXPECT_EQ(lk.inode->type, InodeType::Directory);
    EXPECT_EQ(lk.leaf, "c");
}

TEST_F(VfsTest, CreateWriteReadFile)
{
    vfs_.mkdirAll("/data");
    Bytes payload{10, 20, 30};
    ASSERT_TRUE(vfs_.writeFile("/data/x", payload).ok());
    Bytes out;
    ASSERT_TRUE(vfs_.readFile("/data/x", out).ok());
    EXPECT_EQ(out, payload);
}

TEST_F(VfsTest, UnlinkAndRmdirSemantics)
{
    vfs_.mkdirAll("/d");
    vfs_.writeFile("/d/f", {1});
    EXPECT_EQ(vfs_.rmdir("/d").err, lnx::NOTEMPTY);
    EXPECT_TRUE(vfs_.unlink("/d/f").ok());
    EXPECT_TRUE(vfs_.rmdir("/d").ok());
    EXPECT_FALSE(vfs_.exists("/d"));
    EXPECT_EQ(vfs_.unlink("/d/f").err, lnx::NOENT);
}

TEST_F(VfsTest, UnlinkDirectoryIsEISDIR)
{
    vfs_.mkdirAll("/dir");
    EXPECT_EQ(vfs_.unlink("/dir").err, lnx::ISDIR);
}

TEST_F(VfsTest, RenameDirectoryBeneathItselfIsEINVAL)
{
    vfs_.mkdirAll("/tmp/a/b");
    EXPECT_EQ(vfs_.rename("/tmp/a", "/tmp/a/b/c").err, lnx::INVAL);
    EXPECT_EQ(vfs_.rename("/tmp/a", "/tmp/a/c").err, lnx::INVAL);
    // The tree is untouched: no cycle, nothing detached.
    EXPECT_TRUE(vfs_.exists("/tmp/a/b"));
    EXPECT_FALSE(vfs_.exists("/tmp/a/b/c"));
    EXPECT_FALSE(vfs_.exists("/tmp/a/c"));
    // A sibling destination is still fine.
    EXPECT_TRUE(vfs_.rename("/tmp/a/b", "/tmp/b").ok());
    EXPECT_TRUE(vfs_.exists("/tmp/b"));
}

TEST_F(VfsTest, RenameOfOrOntoRootIsEBUSY)
{
    vfs_.mkdirAll("/tmp/a");
    EXPECT_EQ(vfs_.rename("/", "/tmp/a/r").err, lnx::BUSY);
    EXPECT_EQ(vfs_.rename("/tmp/a", "/").err, lnx::BUSY);
    EXPECT_TRUE(vfs_.exists("/tmp/a"));
    EXPECT_FALSE(vfs_.exists("/tmp/a/r"));
}

TEST_F(VfsTest, LookupThroughFileIsENOTDIR)
{
    vfs_.writeFile("/plain", {1});
    EXPECT_EQ(vfs_.lookup("/plain/sub").err, lnx::NOTDIR);
}

TEST_F(VfsTest, ReaddirListsChildren)
{
    vfs_.mkdirAll("/lib");
    vfs_.writeFile("/lib/a.so", {1});
    vfs_.writeFile("/lib/b.so", {2});
    std::vector<std::string> names;
    ASSERT_TRUE(vfs_.readdir("/lib", names).ok());
    EXPECT_EQ(names, (std::vector<std::string>{"a.so", "b.so"}));
}

TEST_F(VfsTest, OverlayRewritesLongestPrefix)
{
    vfs_.mkdirAll("/data/ios/Documents");
    vfs_.mkdirAll("/data/ios/Documents/Inbox2");
    vfs_.addOverlay("/Documents", "/data/ios/Documents");
    vfs_.addOverlay("/Documents/Inbox", "/data/ios/Documents/Inbox2");

    EXPECT_EQ(vfs_.rewrite("/Documents/a.txt"),
              "/data/ios/Documents/a.txt");
    EXPECT_EQ(vfs_.rewrite("/Documents/Inbox/m"),
              "/data/ios/Documents/Inbox2/m");
    // Prefix must match on a component boundary.
    EXPECT_EQ(vfs_.rewrite("/DocumentsX"), "/DocumentsX");
}

TEST_F(VfsTest, OverlayEndToEnd)
{
    vfs_.mkdirAll("/data/ios/Documents");
    vfs_.addOverlay("/Documents", "/data/ios/Documents");
    ASSERT_TRUE(vfs_.writeFile("/Documents/n.txt", {7}).ok());
    EXPECT_TRUE(vfs_.exists("/data/ios/Documents/n.txt"));
    Bytes out;
    ASSERT_TRUE(vfs_.readFile("/Documents/n.txt", out).ok());
    EXPECT_EQ(out, Bytes{7});
}

TEST_F(VfsTest, MkdirExistingFails)
{
    vfs_.mkdirAll("/x");
    EXPECT_EQ(vfs_.mkdir("/x").err, lnx::EXIST);
}

TEST_F(VfsTest, SplitPathDropsDotAndEmpty)
{
    auto parts = Vfs::splitPath("//a/./b/");
    EXPECT_EQ(parts, (std::vector<std::string>{"a", "b"}));
}

TEST_F(VfsTest, SplitPathResolvesDotDot)
{
    EXPECT_EQ(Vfs::splitPath("a/../b"),
              (std::vector<std::string>{"b"}));
    EXPECT_EQ(Vfs::splitPath("/a/b/../../c"),
              (std::vector<std::string>{"c"}));
    // A leading ".." at the root stays at the root, as in POSIX.
    EXPECT_EQ(Vfs::splitPath("../a"),
              (std::vector<std::string>{"a"}));
    EXPECT_EQ(Vfs::splitPath("/../../a/.."),
              (std::vector<std::string>{}));
}

TEST_F(VfsTest, DotDotResolvesToParentNotChildName)
{
    ASSERT_TRUE(vfs_.mkdirAll("/a").ok());
    ASSERT_TRUE(vfs_.mkdirAll("/b").ok());
    ASSERT_TRUE(vfs_.writeFile("/b/file", Bytes{9}).ok());

    // The regression: ".." used to be looked up as a literal child
    // named "..", so this returned ENOENT.
    EXPECT_TRUE(vfs_.exists("/a/../b/file"));
    Lookup lk = vfs_.lookup("/a/../b/file");
    EXPECT_EQ(lk.err, 0);
    ASSERT_NE(lk.inode, nullptr);
    EXPECT_EQ(lk.leaf, "file");

    Bytes data;
    EXPECT_TRUE(vfs_.readFile("/a/../b/file", data).ok());
    EXPECT_EQ(data, Bytes{9});
}

TEST_F(VfsTest, LeadingDotDotStaysAtRoot)
{
    ASSERT_TRUE(vfs_.mkdirAll("/top").ok());
    EXPECT_TRUE(vfs_.exists("/../top"));
    EXPECT_TRUE(vfs_.exists("/../../top"));
    // "/.." is the root itself.
    Lookup lk = vfs_.lookup("/..");
    EXPECT_EQ(lk.err, 0);
    ASSERT_NE(lk.inode, nullptr);
    EXPECT_EQ(lk.inode->type, InodeType::Directory);
}

TEST_F(VfsTest, DotDotAfterMissingComponentIsENOENT)
{
    ASSERT_TRUE(vfs_.mkdirAll("/real").ok());
    Lookup lk = vfs_.lookup("/missing/../real");
    EXPECT_EQ(lk.err, lnx::NOENT);
}

TEST_F(VfsTest, DotDotThroughFileIsENOTDIR)
{
    ASSERT_TRUE(vfs_.writeFile("/plain", Bytes{1}).ok());
    Lookup lk = vfs_.lookup("/plain/../other");
    EXPECT_EQ(lk.err, lnx::NOTDIR);
}

TEST_F(VfsTest, DotDotThroughOverlayRewrittenPath)
{
    vfs_.addOverlay("/Documents", "/data/ios/Documents");
    ASSERT_TRUE(vfs_.mkdirAll("/data/ios/Documents/sub").ok());
    ASSERT_TRUE(
        vfs_.writeFile("/data/ios/Documents/inbox.txt", Bytes{5})
            .ok());

    // ".." applies to the rewritten path: /Documents/sub/.. is the
    // overlay target directory itself.
    EXPECT_TRUE(vfs_.exists("/Documents/sub/../inbox.txt"));
    Bytes data;
    ASSERT_TRUE(
        vfs_.readFile("/Documents/sub/../inbox.txt", data).ok());
    EXPECT_EQ(data, Bytes{5});
}

} // namespace
} // namespace cider::kernel
