/**
 * @file
 * The simulated GPU and graphics memory.
 *
 * Both ecosystems reach this hardware, but only through their own
 * opaque interfaces: Android's GL stack drives it through
 * device-specific ioctls on the Linux driver node, and iOS reaches
 * it through I/O Kit (Mach IPC) on a real Apple device. Cider's whole
 * graphics story (paper section 5.3) is that the foreign path cannot
 * be reimplemented — so foreign apps must reach the *domestic* path
 * via diplomats. The simulator therefore exposes exactly those two
 * frontends over one SimGpu.
 *
 * Rendering is modelled, not rasterised faithfully: draws charge
 * per-vertex and per-fragment costs from the device profile and write
 * a deterministic pattern into the target buffer so tests can verify
 * that pixels actually moved.
 */

#ifndef CIDER_GPU_SIM_GPU_H
#define CIDER_GPU_SIM_GPU_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "hw/device_profile.h"
#include "kernel/device.h"

namespace cider::gpu {

/** Pixel indices start, start + stride, ... (@c count of them). */
struct PixelRun
{
    std::uint32_t start = 0;
    std::uint32_t stride = 1;
    std::uint32_t count = 0;

    bool operator==(const PixelRun &) const = default;
};

/**
 * The pixels written since some reference point, as a short list of
 * strided runs. Once the list would overflow it collapses to "the
 * whole buffer", which is always a safe over-approximation.
 */
class Damage
{
  public:
    static constexpr std::size_t kMaxRuns = 16;

    void add(const PixelRun &run);
    void add(const Damage &other);
    void markAll() { all_ = true; n_ = 0; }
    void reset() { all_ = false; n_ = 0; }

    bool all() const { return all_; }
    const PixelRun *begin() const { return runs_.data(); }
    const PixelRun *end() const { return runs_.data() + n_; }

  private:
    std::array<PixelRun, kMaxRuns> runs_{};
    std::size_t n_ = 0;
    bool all_ = false;
};

/**
 * A shareable graphics memory buffer (gralloc / IOSurface backing).
 *
 * Besides its pixels, a buffer carries the damage state that lets a
 * Clear or a present touch only what changed: the colour of its last
 * full fill, the runs written since that fill, and the runs written
 * since it was last presented. SimGpu and FramebufferDevice keep that
 * state. Anything else that writes @c pixels directly must call
 * dropDamage() afterwards, so the next Clear and present fall back to
 * a full fill and a full copy.
 */
struct GraphicsBuffer
{
    std::uint32_t id = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::vector<std::uint32_t> pixels;

    /** Every pixel not in @c sinceFill holds this colour. */
    std::uint32_t fillColour = 0;
    Damage sinceFill;
    Damage sincePresent;
    /** Bumped by every present; lets a presenter tell whether its
     *  copy of this buffer is still the latest one. */
    std::uint64_t presentSeq = 0;

    std::size_t sizeBytes() const { return pixels.size() * 4; }

    /** Record a SimGpu write of @p run. */
    void damage(const PixelRun &run)
    {
        sinceFill.add(run);
        sincePresent.add(run);
    }

    /** The direct-write contract: call after writing @c pixels from
     *  outside SimGpu. */
    void dropDamage()
    {
        sinceFill.markAll();
        sincePresent.markAll();
    }
};

using BufferPtr = std::shared_ptr<GraphicsBuffer>;

/**
 * Allocator/registry of graphics buffers. Shared by gralloc (Android)
 * and IOSurface (iOS) so hand-offs between the stacks are zero-copy:
 * both sides hold the same buffer object, found by id.
 */
class BufferManager
{
  public:
    BufferPtr create(std::uint32_t width, std::uint32_t height);
    BufferPtr find(std::uint32_t id) const;
    bool destroy(std::uint32_t id);
    std::size_t liveCount() const;

  private:
    mutable std::mutex mu_;
    std::map<std::uint32_t, BufferPtr> buffers_;
    std::uint32_t nextId_ = 1;
};

/** GPU command opcodes. */
enum class GpuOp
{
    ClearColor,  ///< f0..f3 = rgba
    Clear,       ///< fill target with clear colour
    DrawArrays,  ///< a = vertex count
    BindTexture, ///< a = texture buffer id
    TexImage2D,  ///< a = width, b = height (upload cost)
    UseProgram,  ///< a = program id
    SetUniform,
    FenceInsert, ///< a = fence id
    FenceWait,   ///< a = fence id
    Present,     ///< hand target to scanout
};

struct GpuCommand
{
    GpuOp op = GpuOp::Clear;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double f0 = 0, f1 = 0, f2 = 0, f3 = 0;
    std::uint32_t target = 0; ///< render-target buffer id
};

/** Counters for tests and benches. */
struct GpuStats
{
    std::uint64_t commands = 0;
    std::uint64_t vertices = 0;
    std::uint64_t fragments = 0;
    std::uint64_t fenceWaits = 0;
    std::uint64_t presents = 0;
};

class SimGpu
{
  public:
    explicit SimGpu(const hw::DeviceProfile &profile);

    /** Execute a command stream, charging the active clock. */
    void submit(const std::vector<GpuCommand> &cmds);

    BufferManager &buffers() { return buffers_; }
    GpuStats stats() const;

    /**
     * Reproduce the prototype's OpenGL ES library bug: "incorrect
     * 'fence' synchronization primitive support ... degraded our
     * graphics performance" (paper section 6.4). When enabled, every
     * fence wait stalls for several extra fence periods.
     */
    void setFenceBug(bool enabled) { fenceBug_ = enabled; }
    bool fenceBug() const { return fenceBug_; }

    const hw::DeviceProfile &profile() const { return profile_; }

  private:
    void execute(const GpuCommand &cmd);

    const hw::DeviceProfile &profile_;
    BufferManager buffers_;
    mutable std::mutex mu_;
    GpuStats stats_;
    std::map<std::uint64_t, bool> fences_;
    std::atomic<std::uint32_t> clearColor_{0xff000000};
    bool fenceBug_ = false;
};

/**
 * The Linux GPU driver node (/dev/nvhost): Android's GL stack
 * submits command streams through device-specific ioctls here.
 */
class GpuDevice : public kernel::Device
{
  public:
    /** ioctl request codes (opaque outside the domestic GL stack). */
    static constexpr std::uint64_t kIoctlSubmit = 0xc0de0001;
    static constexpr std::uint64_t kIoctlCreateBuffer = 0xc0de0002;
    static constexpr std::uint64_t kIoctlStats = 0xc0de0003;

    explicit GpuDevice(SimGpu &gpu);

    kernel::SyscallResult ioctl(kernel::Thread &t, std::uint64_t req,
                                void *arg) override;

    SimGpu &gpu() { return gpu_; }

  private:
    SimGpu &gpu_;
};

/** Argument block for kIoctlCreateBuffer. */
struct CreateBufferArgs
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint32_t outId = 0;
};

/**
 * The Linux framebuffer driver (the Nexus 7 display). Presenting
 * copies a buffer to the scanout front buffer: in full the first time
 * a buffer is presented, and afterwards only the runs written since
 * its previous present, as long as no other buffer came in between.
 */
class FramebufferDevice : public kernel::Device
{
  public:
    static constexpr std::uint64_t kIoctlPresent = 0xfb000001;
    static constexpr std::uint64_t kIoctlGetInfo = 0xfb000002;

    FramebufferDevice(SimGpu &gpu, std::uint32_t width,
                      std::uint32_t height);

    kernel::SyscallResult ioctl(kernel::Thread &t, std::uint64_t req,
                                void *arg) override;

    /** Read only while no present is in flight. */
    const GraphicsBuffer &frontBuffer() const { return front_; }
    std::uint64_t presentCount() const { return presents_.load(); }
    std::uint32_t width() const { return front_.width; }
    std::uint32_t height() const { return front_.height; }

  private:
    kernel::SyscallResult present(std::uint32_t buf_id);

    SimGpu &gpu_;
    std::mutex mu_; ///< guards front_ pixels and the cursor below
    GraphicsBuffer front_;
    /// @{ The last buffer presented and its presentSeq at that time.
    std::uint32_t lastId_ = 0;
    std::uint64_t lastSeq_ = 0;
    /// @}
    std::atomic<std::uint64_t> presents_{0};
};

/** Argument block for FramebufferDevice::kIoctlGetInfo. */
struct FbInfo
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
};

} // namespace cider::gpu

#endif // CIDER_GPU_SIM_GPU_H
