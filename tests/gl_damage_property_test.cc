/**
 * @file
 * Damage-tracking oracle: seeded command streams run against SimGpu
 * and FramebufferDevice, whose Clear rewrites only the damage and
 * whose present copies only the runs written since the last one, and
 * against a reference model that always fills and copies in full.
 * After every command the buffer it wrote, the front buffer (after a
 * present) and the thread's virtual ns must match the model exactly,
 * and after every stream all of them must.
 *
 * The streams mix ClearColor, Clear, DrawArrays (vertex counts that
 * fit the run list, bursts of distinct draws that overflow it, and
 * counts that cover every pixel), presents of the same buffer and of
 * alternating buffers, direct pixel writes followed by dropDamage(),
 * and buffer destroys, over 64x64 to 1280x800 buffers.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "base/rng.h"
#include "gpu/sim_gpu.h"
#include "hw/device_profile.h"
#include "kernel/kernel.h"

namespace cider::gpu {
namespace {

constexpr std::uint32_t kFbWidth = 1280;
constexpr std::uint32_t kFbHeight = 800;

/** The pre-damage semantics: full fills, full copies, same charges. */
struct FullModel
{
    explicit FullModel(const hw::DeviceProfile &prof) : p(prof) {}

    const hw::DeviceProfile &p;
    std::map<std::uint32_t, std::vector<std::uint32_t>> bufs;
    std::vector<std::uint32_t> front =
        std::vector<std::uint32_t>(std::size_t{kFbWidth} * kFbHeight, 0);
    std::uint32_t colour = 0xff000000;
    std::uint64_t ns = 0;

    void clear(std::uint32_t id)
    {
        std::vector<std::uint32_t> &b = bufs.at(id);
        ns += p.gpuPerCommandNs + b.size() * p.gpuPerFragmentPs / 1000;
        std::fill(b.begin(), b.end(), colour);
    }
    void draw(std::uint32_t id, std::uint64_t vertices)
    {
        std::vector<std::uint32_t> &b = bufs.at(id);
        std::uint64_t frags = std::min<std::uint64_t>(vertices * 24, b.size());
        ns += p.gpuPerCommandNs + vertices * p.gpuPerVertexNs +
              frags * p.gpuPerFragmentPs / 1000;
        std::size_t stride = std::max<std::size_t>(1, b.size() / (frags + 1));
        for (std::size_t i = 0; i < b.size(); i += stride)
            b[i] ^= 0x00ffffff & (0x9e3779b9u + i);
    }
    void present(std::uint32_t id)
    {
        const std::vector<std::uint32_t> &b = bufs.at(id);
        std::size_t n = std::min(front.size(), b.size());
        ns += n * p.gpuPerFragmentPs / 1000;
        std::copy_n(b.begin(), n, front.begin());
    }
};

class DamageOracle
{
  public:
    explicit DamageOracle(std::uint64_t seed)
        : kernel_(hw::DeviceProfile::nexus7()), gpu_(kernel_.profile()),
          fb_(gpu_, kFbWidth, kFbHeight), model_(kernel_.profile()),
          rng_(seed)
    {
        proc_ = &kernel_.createProcess("damage");
        scope_ = std::make_unique<kernel::ThreadScope>(
            proc_->mainThread());
        ns0_ = proc_->mainThread().clock().now();
        // One scanout-sized buffer; the smaller ones are partial
        // copies onto the front buffer.
        for (auto [w, h] : {std::pair{kFbWidth, kFbHeight},
                            std::pair{640u, 400u}, std::pair{64u, 64u},
                            std::pair{33u, 17u}})
            slots_.push_back(make(w, h));
    }

    /**
     * Run one random command on both sides, then compare what it can
     * have changed: its buffer, the front buffer after a present, and
     * the virtual ns.
     */
    ::testing::AssertionResult step()
    {
        BufferPtr &buf = slots_[rng_.below(slots_.size())];
        BufferPtr *touched = &buf;
        bool presented = false;
        std::uint64_t pick = rng_.below(100);
        if (pick < 8) {
            colour_ = colour_ == 0 ? 1 : 0; // few colours: reuse is common
            GpuCommand c;
            c.op = GpuOp::ClearColor;
            c.f0 = colour_ ? 0.2 : 0.6;
            c.f1 = 0.4;
            gpu_.submit({c});
            model_.colour = 0xff000000 | (static_cast<std::uint32_t>(
                                              c.f0 * 255.0) << 16) |
                            (static_cast<std::uint32_t>(c.f1 * 255.0) << 8);
            model_.ns += model_.p.gpuPerCommandNs;
        } else if (pick < 30) {
            GpuCommand c;
            c.op = GpuOp::Clear;
            c.target = buf->id;
            gpu_.submit({c});
            model_.clear(buf->id);
        } else if (pick < 60) {
            // Mostly vertex counts that fit; some bursts of distinct
            // draws that overflow the run list; some that cover every
            // pixel.
            std::uint64_t kind = rng_.below(10);
            int draws = kind < 2 ? 20 : 1;
            for (int d = 0; d < draws; ++d) {
                GpuCommand c;
                c.op = GpuOp::DrawArrays;
                c.a = kind == 2 ? 100000 : 1 + rng_.below(60);
                c.target = buf->id;
                gpu_.submit({c});
                model_.draw(buf->id, c.a);
            }
        } else if (pick < 85) {
            // Present the last presented buffer again, or another one.
            BufferPtr &target =
                rng_.chance(0.7) && lastPresented_ ? *lastPresented_ : buf;
            kernel::SyscallResult r = fb_.ioctl(
                proc_->mainThread(), FramebufferDevice::kIoctlPresent,
                reinterpret_cast<void *>(
                    static_cast<std::uintptr_t>(target->id)));
            if (!r.ok())
                return ::testing::AssertionFailure() << "present failed";
            model_.present(target->id);
            lastPresented_ = touched = &target;
            presented = true;
        } else if (pick < 93) {
            // A writer outside SimGpu, keeping the documented contract.
            for (int k = 0; k < 4; ++k) {
                std::size_t i = rng_.below(buf->pixels.size());
                auto v = static_cast<std::uint32_t>(rng_.next());
                buf->pixels[i] = v;
                model_.bufs.at(buf->id)[i] = v;
            }
            buf->dropDamage();
        } else {
            model_.bufs.erase(buf->id);
            EXPECT_TRUE(gpu_.buffers().destroy(buf->id));
            buf = make(buf->width, buf->height);
        }
        return matches(*touched, presented);
    }

    /** Compare every buffer and the front buffer. */
    ::testing::AssertionResult allMatch()
    {
        for (const BufferPtr &b : slots_)
            if (::testing::AssertionResult r = matches(b, true); !r)
                return r;
        return ::testing::AssertionSuccess();
    }

  private:
    BufferPtr make(std::uint32_t w, std::uint32_t h)
    {
        BufferPtr b = gpu_.buffers().create(w, h);
        model_.bufs[b->id] = b->pixels;
        return b;
    }

    ::testing::AssertionResult matches(const BufferPtr &b, bool front)
    {
        if (b->pixels != model_.bufs.at(b->id))
            return ::testing::AssertionFailure()
                   << "buffer " << b->id << " pixels differ";
        if (front && fb_.frontBuffer().pixels != model_.front)
            return ::testing::AssertionFailure() << "front buffer differs";
        std::uint64_t ns = proc_->mainThread().clock().now() - ns0_;
        if (ns != model_.ns)
            return ::testing::AssertionFailure()
                   << "virtual ns " << ns << " != model " << model_.ns;
        return ::testing::AssertionSuccess();
    }

    kernel::Kernel kernel_;
    SimGpu gpu_;
    FramebufferDevice fb_;
    FullModel model_;
    Rng rng_;
    kernel::Process *proc_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::uint64_t ns0_ = 0;
    std::vector<BufferPtr> slots_;
    BufferPtr *lastPresented_ = nullptr;
    int colour_ = 0;
};

TEST(GlDamageProperty, MatchesFullFillAndCopyModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        DamageOracle oracle(seed);
        for (int i = 0; i < 120; ++i)
            ASSERT_TRUE(oracle.step()) << "seed " << seed << " step " << i;
        ASSERT_TRUE(oracle.allMatch()) << "seed " << seed;
    }
}

TEST(GlDamageProperty, DamageListCollapsesOnOverflow)
{
    Damage d;
    for (std::uint32_t s = 1; s <= Damage::kMaxRuns; ++s)
        d.add(PixelRun{0, s, 10});
    d.add(PixelRun{0, 1, 10}); // duplicate: no growth
    EXPECT_FALSE(d.all());
    EXPECT_EQ(static_cast<std::size_t>(d.end() - d.begin()), Damage::kMaxRuns);
    d.add(PixelRun{3, 7, 10});
    EXPECT_TRUE(d.all());
    EXPECT_EQ(d.begin(), d.end());
    d.reset();
    EXPECT_FALSE(d.all());
}

} // namespace
} // namespace cider::gpu
