/**
 * @file
 * Simulated-GPU tests: buffers, command execution, fences (with the
 * Cider fence bug), and the Linux driver ioctl frontends.
 */

#include <gtest/gtest.h>

#include "base/cost_clock.h"
#include "gpu/sim_gpu.h"
#include "hw/device_profile.h"
#include "kernel/kernel.h"

namespace cider::gpu {
namespace {

class GpuTest : public ::testing::Test
{
  protected:
    GpuTest()
        : kernel_(hw::DeviceProfile::nexus7()), gpu_(kernel_.profile())
    {
        proc_ = &kernel_.createProcess("gfx");
        scope_ = std::make_unique<kernel::ThreadScope>(
            proc_->mainThread());
    }

    kernel::Kernel kernel_;
    SimGpu gpu_;
    kernel::Process *proc_;
    std::unique_ptr<kernel::ThreadScope> scope_;
};

TEST_F(GpuTest, BufferLifecycle)
{
    BufferPtr buf = gpu_.buffers().create(64, 32);
    EXPECT_EQ(buf->pixels.size(), 64u * 32u);
    EXPECT_EQ(gpu_.buffers().find(buf->id), buf);
    EXPECT_EQ(gpu_.buffers().liveCount(), 1u);
    EXPECT_TRUE(gpu_.buffers().destroy(buf->id));
    EXPECT_FALSE(gpu_.buffers().destroy(buf->id));
    EXPECT_EQ(gpu_.buffers().find(buf->id), nullptr);
}

TEST_F(GpuTest, ClearFillsTargetWithClearColor)
{
    BufferPtr buf = gpu_.buffers().create(8, 8);
    std::vector<GpuCommand> cmds(2);
    cmds[0].op = GpuOp::ClearColor;
    cmds[0].f0 = 1.0; // red
    cmds[1].op = GpuOp::Clear;
    cmds[1].target = buf->id;
    gpu_.submit(cmds);
    EXPECT_EQ(buf->pixels[0], 0xffff0000u);
    EXPECT_EQ(gpu_.stats().fragments, 64u);
}

TEST_F(GpuTest, DrawChargesVerticesAndFragments)
{
    BufferPtr buf = gpu_.buffers().create(128, 128);
    std::vector<GpuCommand> cmds(1);
    cmds[0].op = GpuOp::DrawArrays;
    cmds[0].a = 300;
    cmds[0].target = buf->id;

    std::uint64_t cost = measureVirtual([&] { gpu_.submit(cmds); });
    const auto &p = kernel_.profile();
    EXPECT_GE(cost, p.gpuPerCommandNs + 300 * p.gpuPerVertexNs);
    EXPECT_EQ(gpu_.stats().vertices, 300u);
    // Pixels were actually touched.
    bool touched = false;
    for (std::uint32_t px : buf->pixels)
        if (px != 0)
            touched = true;
    EXPECT_TRUE(touched);
}

TEST_F(GpuTest, FenceBugMultipliesStall)
{
    std::vector<GpuCommand> cmds(2);
    cmds[0].op = GpuOp::FenceInsert;
    cmds[0].a = 1;
    cmds[1].op = GpuOp::FenceWait;
    cmds[1].a = 1;

    std::uint64_t healthy = measureVirtual([&] { gpu_.submit(cmds); });
    gpu_.setFenceBug(true);
    std::uint64_t buggy = measureVirtual([&] { gpu_.submit(cmds); });
    // The broken fence support stalls several periods longer.
    EXPECT_GE(buggy, healthy + 4 * kernel_.profile().gpuFenceNs);
    EXPECT_EQ(gpu_.stats().fenceWaits, 2u);
}

TEST_F(GpuTest, GpuDeviceIoctlSubmitAndStats)
{
    GpuDevice dev(gpu_);
    kernel::Thread &t = proc_->mainThread();

    CreateBufferArgs create;
    create.width = 16;
    create.height = 16;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlCreateBuffer, &create)
                    .ok());
    EXPECT_NE(create.outId, 0u);

    std::vector<GpuCommand> cmds(1);
    cmds[0].op = GpuOp::DrawArrays;
    cmds[0].a = 12;
    cmds[0].target = create.outId;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlSubmit, &cmds).ok());

    GpuStats stats;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlStats, &stats).ok());
    EXPECT_EQ(stats.vertices, 12u);

    EXPECT_EQ(dev.ioctl(t, 0x1234, nullptr).err, kernel::lnx::INVAL);
    EXPECT_EQ(dev.ioctl(t, GpuDevice::kIoctlSubmit, nullptr).err,
              kernel::lnx::FAULT);
}

TEST_F(GpuTest, FramebufferPresentCopiesPixels)
{
    FramebufferDevice fb(gpu_, 32, 32);
    kernel::Thread &t = proc_->mainThread();

    gpu::FbInfo info;
    ASSERT_TRUE(fb.ioctl(t, FramebufferDevice::kIoctlGetInfo, &info)
                    .ok());
    EXPECT_EQ(info.width, 32u);

    BufferPtr buf = gpu_.buffers().create(32, 32);
    std::fill(buf->pixels.begin(), buf->pixels.end(), 0x12345678u);
    buf->dropDamage();
    ASSERT_TRUE(fb.ioctl(t, FramebufferDevice::kIoctlPresent,
                         reinterpret_cast<void *>(
                             static_cast<std::uintptr_t>(buf->id)))
                    .ok());
    EXPECT_EQ(fb.presentCount(), 1u);
    EXPECT_EQ(fb.frontBuffer().pixels[100], 0x12345678u);

    // Presenting a bogus buffer fails.
    EXPECT_EQ(fb.ioctl(t, FramebufferDevice::kIoctlPresent,
                       reinterpret_cast<void *>(
                           static_cast<std::uintptr_t>(0x7777)))
                  .err,
              kernel::lnx::INVAL);
}

} // namespace
} // namespace cider::gpu
