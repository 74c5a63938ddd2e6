#include "gpu/sim_gpu.h"

#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"

namespace cider::gpu {

namespace {

/** Call @p fn(i) for each index of @p run below @p limit. */
template <typename Fn>
void
forEachIndex(const PixelRun &run, std::size_t limit, Fn fn)
{
    std::size_t i = run.start;
    for (std::uint32_t k = 0; k < run.count && i < limit;
         ++k, i += run.stride)
        fn(i);
}

} // namespace

void
Damage::add(const PixelRun &run)
{
    if (all_ || run.count == 0)
        return;
    for (std::size_t k = 0; k < n_; ++k)
        if (runs_[k] == run)
            return;
    if (n_ == kMaxRuns) {
        markAll();
        return;
    }
    runs_[n_++] = run;
}

void
Damage::add(const Damage &other)
{
    if (other.all_) {
        markAll();
        return;
    }
    for (const PixelRun &run : other)
        add(run);
}

BufferPtr
BufferManager::create(std::uint32_t width, std::uint32_t height)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_shared<GraphicsBuffer>();
    buf->id = nextId_++;
    buf->width = width;
    buf->height = height;
    buf->pixels.assign(static_cast<std::size_t>(width) * height, 0);
    buffers_[buf->id] = buf;
    return buf;
}

BufferPtr
BufferManager::find(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buffers_.find(id);
    return it == buffers_.end() ? nullptr : it->second;
}

bool
BufferManager::destroy(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.erase(id) > 0;
}

std::size_t
BufferManager::liveCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.size();
}

SimGpu::SimGpu(const hw::DeviceProfile &profile) : profile_(profile) {}

void
SimGpu::submit(const std::vector<GpuCommand> &cmds)
{
    for (const GpuCommand &cmd : cmds) {
        charge(profile_.gpuPerCommandNs);
        execute(cmd);
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.commands += cmds.size();
}

void
SimGpu::execute(const GpuCommand &cmd)
{
    switch (cmd.op) {
      case GpuOp::ClearColor: {
          auto chan = [](double v) {
              if (v < 0)
                  v = 0;
              if (v > 1)
                  v = 1;
              return static_cast<std::uint32_t>(v * 255.0);
          };
          clearColor_.store(0xff000000 | (chan(cmd.f0) << 16) |
                                (chan(cmd.f1) << 8) | chan(cmd.f2),
                            std::memory_order_relaxed);
          break;
      }
      case GpuOp::Clear: {
          BufferPtr buf = buffers_.find(cmd.target);
          if (buf) {
              // The charge is for the whole buffer whatever the host
              // rewrites: only the damage since a fill of the same
              // colour can differ from the clear colour.
              charge(buf->pixels.size() * profile_.gpuPerFragmentPs /
                     1000);
              std::uint32_t colour =
                  clearColor_.load(std::memory_order_relaxed);
              if (!buf->sinceFill.all() && buf->fillColour == colour) {
                  for (const PixelRun &run : buf->sinceFill)
                      forEachIndex(run, buf->pixels.size(),
                                   [&](std::size_t i) {
                                       buf->pixels[i] = colour;
                                   });
                  buf->sincePresent.add(buf->sinceFill);
              } else {
                  std::fill(buf->pixels.begin(), buf->pixels.end(),
                            colour);
                  buf->fillColour = colour;
                  buf->sincePresent.markAll();
              }
              buf->sinceFill.reset();
              std::lock_guard<std::mutex> lock(mu_);
              stats_.fragments += buf->pixels.size();
          }
          break;
      }
      case GpuOp::DrawArrays: {
          std::uint64_t vertices = cmd.a;
          charge(vertices * profile_.gpuPerVertexNs);
          BufferPtr buf = buffers_.find(cmd.target);
          std::uint64_t fragments = vertices * 24; // avg triangle area
          if (buf) {
              fragments = std::min<std::uint64_t>(fragments,
                                                  buf->pixels.size());
              charge(fragments * profile_.gpuPerFragmentPs / 1000);
              // Touch a deterministic strided run of pixels so tests
              // can see that the draw landed; the run is its damage.
              std::size_t n = buf->pixels.size();
              PixelRun run;
              run.stride = static_cast<std::uint32_t>(
                  std::max<std::size_t>(1, n / (fragments + 1)));
              run.count = static_cast<std::uint32_t>(
                  n == 0 ? 0 : (n - 1) / run.stride + 1);
              forEachIndex(run, n, [&](std::size_t i) {
                  buf->pixels[i] ^= 0x00ffffff & (0x9e3779b9u + i);
              });
              buf->damage(run);
          } else {
              charge(fragments * profile_.gpuPerFragmentPs / 1000);
          }
          std::lock_guard<std::mutex> lock(mu_);
          stats_.vertices += vertices;
          stats_.fragments += fragments;
          break;
      }
      case GpuOp::BindTexture:
      case GpuOp::UseProgram:
      case GpuOp::SetUniform:
        break; // state changes: command cost only
      case GpuOp::TexImage2D:
        // Texture upload: per-texel transfer.
        charge(cmd.a * cmd.b * profile_.gpuPerFragmentPs / 1000);
        break;
      case GpuOp::FenceInsert: {
          std::lock_guard<std::mutex> lock(mu_);
          fences_[cmd.a] = true;
          break;
      }
      case GpuOp::FenceWait: {
          // The Cider prototype's broken fence support stalls the
          // pipeline; model it as several extra fence round trips.
          std::uint64_t stall = profile_.gpuFenceNs;
          if (fenceBug_)
              stall *= 6;
          charge(stall);
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.fenceWaits;
          break;
      }
      case GpuOp::Present: {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.presents;
          break;
      }
    }
}

GpuStats
SimGpu::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

GpuDevice::GpuDevice(SimGpu &gpu) : Device("nvhost", "gpu"), gpu_(gpu)
{
    setProperty("vendor", "nvidia");
    setProperty("model", "tegra3");
}

kernel::SyscallResult
GpuDevice::ioctl(kernel::Thread &, std::uint64_t req, void *arg)
{
    switch (req) {
      case kIoctlSubmit: {
          auto *cmds = static_cast<std::vector<GpuCommand> *>(arg);
          if (!cmds)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          gpu_.submit(*cmds);
          return kernel::SyscallResult::success(
              static_cast<std::int64_t>(cmds->size()));
      }
      case kIoctlCreateBuffer: {
          auto *args = static_cast<CreateBufferArgs *>(arg);
          if (!args)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          BufferPtr buf = gpu_.buffers().create(args->width,
                                                args->height);
          args->outId = buf->id;
          return kernel::SyscallResult::success(buf->id);
      }
      case kIoctlStats: {
          auto *out = static_cast<GpuStats *>(arg);
          if (!out)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          *out = gpu_.stats();
          return kernel::SyscallResult::success();
      }
      default:
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    }
}

FramebufferDevice::FramebufferDevice(SimGpu &gpu, std::uint32_t width,
                                     std::uint32_t height)
    : Device("fb0", "framebuffer"), gpu_(gpu)
{
    front_.id = 0;
    front_.width = width;
    front_.height = height;
    front_.pixels.assign(static_cast<std::size_t>(width) * height, 0);
    setProperty("width", std::to_string(width));
    setProperty("height", std::to_string(height));
}

kernel::SyscallResult
FramebufferDevice::ioctl(kernel::Thread &, std::uint64_t req, void *arg)
{
    switch (req) {
      case kIoctlPresent:
        return present(static_cast<std::uint32_t>(
            reinterpret_cast<std::uintptr_t>(arg)));
      case kIoctlGetInfo: {
          auto *info = static_cast<FbInfo *>(arg);
          if (!info)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          info->width = front_.width;
          info->height = front_.height;
          return kernel::SyscallResult::success();
      }
      default:
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    }
}

kernel::SyscallResult
FramebufferDevice::present(std::uint32_t buf_id)
{
    BufferPtr buf = gpu_.buffers().find(buf_id);
    if (!buf)
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = std::min(front_.pixels.size(), buf->pixels.size());
    charge(n * gpu_.profile().gpuPerFragmentPs / 1000);
    // The front buffer still holds this buffer's previous present
    // unless another buffer (or another presenter) came in between.
    if (buf->id == lastId_ && buf->presentSeq == lastSeq_ &&
        !buf->sincePresent.all()) {
        for (const PixelRun &run : buf->sincePresent)
            forEachIndex(run, n, [&](std::size_t i) {
                front_.pixels[i] = buf->pixels[i];
            });
    } else {
        std::copy_n(buf->pixels.begin(), n, front_.pixels.begin());
    }
    buf->sincePresent.reset();
    lastId_ = buf->id;
    lastSeq_ = ++buf->presentSeq;
    ++presents_;
    return kernel::SyscallResult::success();
}

} // namespace cider::gpu
