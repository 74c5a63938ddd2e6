/**
 * @file
 * Graphics stack tests across both ecosystems on a booted system:
 * domestic GL/EGL over SurfaceFlinger, the diplomatic foreign path
 * (EAGL -> libEGLbridge, IOSurfaceCreate -> gralloc), the generated
 * GL diplomats, and zero-copy buffer sharing.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "android/egl.h"
#include "android/gles.h"
#include "android/gralloc.h"
#include "core/cider_system.h"
#include "ios/dyld.h"
#include "ios/eagl.h"
#include "ios/iosurface_lib.h"
#include "kernel/percpu.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

binfmt::Value
callSym(const binfmt::LibraryImage *lib, const char *name,
        binfmt::UserEnv &env, std::vector<binfmt::Value> args)
{
    const binfmt::Symbol *sym = lib->exports.find(name);
    EXPECT_NE(sym, nullptr) << name;
    return sym->fn(env, args);
}

TEST(GraphicsStack, DomesticEglGlesRenderAndCompose)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderAndroid;
    CiderSystem sys(opts);

    int rc = sys.runInProcess(
        "droidgame", kernel::Persona::Android,
        [&](binfmt::UserEnv &env) {
            const binfmt::LibraryImage *egl =
                sys.androidLibraries().find("libEGL.so");
            const binfmt::LibraryImage *gl =
                sys.androidLibraries().find("libGLESv2.so");

            callSym(egl, "eglInitialize", env, {});
            std::int64_t surface = binfmt::valueI64(callSym(
                egl, "eglCreateWindowSurface", env,
                {std::int64_t{640}, std::int64_t{480}}));
            if (surface <= 0)
                return 1;
            callSym(egl, "eglMakeCurrent", env, {surface});
            callSym(gl, "glClearColor", env, {0.5, 0.5, 0.5, 1.0});
            callSym(gl, "glClear", env, {});
            callSym(gl, "glDrawArrays", env,
                    {std::int64_t{0}, std::int64_t{0},
                     std::int64_t{90}});
            callSym(egl, "eglSwapBuffers", env, {surface});
            return 0;
        });
    ASSERT_EQ(rc, 0);

    EXPECT_EQ(sys.surfaceFlinger().framesComposed(), 1u);
    EXPECT_GT(sys.framebuffer().presentCount(), 0u);
    EXPECT_EQ(sys.gpu().stats().vertices, 90u + 6u); // app + compositor
}

TEST(GraphicsStack, DiplomaticIosSurfaceUsesGralloc)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    std::size_t buffers_before = sys.gpu().buffers().liveCount();
    int rc = sys.runInProcess(
        "iosdraw", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            const binfmt::LibraryImage *iosurface =
                sys.iosLibraries().find("IOSurface.dylib");
            std::int64_t id = binfmt::valueI64(
                callSym(iosurface, ios::kIOSurfaceCreate, env,
                        {std::int64_t{128}, std::int64_t{64}}));
            if (id <= 0)
                return 1;
            std::int64_t w = binfmt::valueI64(callSym(
                iosurface, ios::kIOSurfaceGetWidth, env, {id}));
            std::int64_t h = binfmt::valueI64(callSym(
                iosurface, ios::kIOSurfaceGetHeight, env, {id}));
            if (w != 128 || h != 64)
                return 2;
            // The surface is real gralloc memory: visible on the
            // shared BufferManager.
            if (!sys.gpu().buffers().find(
                    static_cast<std::uint32_t>(id)))
                return 3;
            callSym(iosurface, ios::kIOSurfaceRelease, env, {id});
            return 0;
        });
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(sys.gpu().buffers().liveCount(), buffers_before);
    // Each IOSurface call was a diplomat: persona switches happened.
    EXPECT_GT(sys.personaManager()->personaSwitches(), 0u);
}

TEST(GraphicsStack, GeneratedGlDiplomatsCoverStandardApi)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    const diplomat::GeneratorReport &report = sys.glesReport();
    // Every standard GL ES symbol matched a domestic export; nothing
    // was left unmatched (the EAGL extensions are not in this list).
    EXPECT_EQ(report.unmatched.size(), 0u);
    EXPECT_EQ(report.matched.size(),
              android::glesExportNames().size());
    const binfmt::LibraryImage *gles =
        sys.iosLibraries().find("OpenGLES.dylib");
    ASSERT_NE(gles, nullptr);
    EXPECT_EQ(gles->exports.size(),
              android::glesExportNames().size());
}

TEST(GraphicsStack, EaglPresentsThroughBridgeAndFlinger)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    int rc = sys.runInProcess(
        "eaglapp", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            const binfmt::LibraryImage *eagl =
                sys.iosLibraries().find("EAGL.dylib");
            const binfmt::LibraryImage *gles =
                sys.iosLibraries().find("OpenGLES.dylib");
            std::int64_t ctx = binfmt::valueI64(
                callSym(eagl, ios::kEaglCreateContext, env,
                        {std::int64_t{320}, std::int64_t{480}}));
            if (ctx <= 0)
                return 1;
            callSym(eagl, ios::kEaglSetCurrent, env, {ctx});
            callSym(gles, "glClear", env, {});
            callSym(gles, "glDrawArrays", env,
                    {std::int64_t{0}, std::int64_t{0},
                     std::int64_t{333}});
            callSym(eagl, ios::kEaglPresent, env, {ctx});
            return 0;
        });
    ASSERT_EQ(rc, 0);
    // The iOS app's window memory is a SurfaceFlinger layer like any
    // Android window, composed to the Linux framebuffer.
    EXPECT_EQ(sys.surfaceFlinger().framesComposed(), 1u);
    EXPECT_GE(sys.gpu().stats().vertices, 333u);
    EXPECT_GT(sys.framebuffer().presentCount(), 0u);
}

TEST(GraphicsStack, FenceBugOnlyOnCider)
{
    SystemOptions cider_opts;
    cider_opts.config = SystemConfig::CiderIos;
    CiderSystem cider(cider_opts);
    EXPECT_TRUE(cider.fenceBugEnabled());

    cider_opts.fenceBug = false;
    CiderSystem fixed(cider_opts);
    EXPECT_FALSE(fixed.fenceBugEnabled());

    SystemOptions ipad_opts;
    ipad_opts.config = SystemConfig::IPadMini;
    CiderSystem ipad(ipad_opts);
    EXPECT_FALSE(ipad.fenceBugEnabled());

    // The buggy library's glFinish stalls several extra fence
    // periods compared to the fixed build.
    auto finish_cost = [](CiderSystem &sys) {
        std::uint64_t ns = 0;
        sys.runInProcess(
            "fence", kernel::Persona::Ios,
            [&](binfmt::UserEnv &env) {
                const binfmt::Symbol *fin =
                    sys.iosLibraries()
                        .find("OpenGLES.dylib")
                        ->exports.find("glFinish");
                std::vector<binfmt::Value> args;
                fin->fn(env, args); // warm diplomat cache
                ns = measureVirtual([&] { fin->fn(env, args); });
                return 0;
            });
        return ns;
    };
    EXPECT_GT(finish_cost(cider),
              finish_cost(fixed) + 4 * cider.profile().gpuFenceNs);
}

TEST(GraphicsStack, IpadUsesNativeAppleLibraries)
{
    SystemOptions opts;
    opts.config = SystemConfig::IPadMini;
    CiderSystem sys(opts);

    int rc = sys.runInProcess(
        "ipadapp", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            const binfmt::LibraryImage *eagl =
                sys.iosLibraries().find("EAGL.dylib");
            const binfmt::LibraryImage *gles =
                sys.iosLibraries().find("OpenGLES.dylib");
            std::int64_t ctx = binfmt::valueI64(
                callSym(eagl, ios::kEaglCreateContext, env,
                        {std::int64_t{1024}, std::int64_t{768}}));
            if (ctx <= 0)
                return 1;
            callSym(eagl, ios::kEaglSetCurrent, env, {ctx});
            callSym(gles, "glDrawArrays", env,
                    {std::int64_t{0}, std::int64_t{0},
                     std::int64_t{50}});
            callSym(eagl, ios::kEaglPresent, env, {ctx});
            return 0;
        });
    ASSERT_EQ(rc, 0);
    EXPECT_GE(sys.gpu().stats().vertices, 50u);
    // Native path: no persona switching on an Apple device.
    EXPECT_EQ(sys.personaManager()->personaSwitches(), 0u);
}

TEST(GraphicsStack, ConcurrentAppsComposeEveryFrame)
{
    // Four apps, both personas, render at once from pool workers. Each
    // frame must reach its own surface and be composed exactly once.
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    constexpr int kApps = 4;
    constexpr int kFrames = 12;

    struct App
    {
        bool ios = false;
        kernel::Thread *thread = nullptr;
        std::unique_ptr<binfmt::UserEnv> env;
        const binfmt::LibraryImage *ctx = nullptr;
        const binfmt::LibraryImage *gles = nullptr;
        std::int64_t surface = 0;
    };
    std::vector<App> apps(kApps);
    for (int i = 0; i < kApps; ++i) {
        App &a = apps[i];
        a.ios = i % 2 == 0;
        kernel::Process &proc = sys.kernel().createProcess(
            "glapp" + std::to_string(i),
            a.ios ? kernel::Persona::Ios : kernel::Persona::Android);
        a.thread = &proc.mainThread();
        kernel::ThreadScope scope(*a.thread);
        a.env = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{sys.kernel(), *a.thread, {}});
        if (a.ios) {
            a.ctx = sys.iosLibraries().find("EAGL.dylib");
            a.gles = sys.iosLibraries().find("OpenGLES.dylib");
            a.surface = binfmt::valueI64(
                callSym(a.ctx, ios::kEaglCreateContext, *a.env,
                        {std::int64_t{64}, std::int64_t{64}}));
            callSym(a.ctx, ios::kEaglSetCurrent, *a.env, {a.surface});
        } else {
            a.ctx = sys.androidLibraries().find("libEGL.so");
            a.gles = sys.androidLibraries().find("libGLESv2.so");
            callSym(a.ctx, "eglInitialize", *a.env, {});
            a.surface = binfmt::valueI64(
                callSym(a.ctx, "eglCreateWindowSurface", *a.env,
                        {std::int64_t{64}, std::int64_t{64}}));
            callSym(a.ctx, "eglMakeCurrent", *a.env, {a.surface});
        }
        ASSERT_GT(a.surface, 0);
    }

    auto surfacePixels = [&sys](App &a) {
        const android::EglState &st = android::eglState(*a.env);
        gpu::BufferPtr buf = sys.gpu().buffers().find(
            st.surfaces.at(static_cast<int>(a.surface)).bufferId);
        return buf ? buf->pixels : std::vector<std::uint32_t>{};
    };

    std::uint64_t frames0 = sys.surfaceFlinger().framesComposed();
    std::uint64_t presents0 = sys.framebuffer().presentCount();
    std::atomic<int> unchanged{0};
    kernel::ExecutorPool pool(sys.kernel().percpu(), kApps);
    unsigned ncpus = sys.kernel().percpu().count();
    for (int i = 0; i < kApps; ++i) {
        App *a = &apps[i];
        pool.submitOn(i % ncpus, [a, &surfacePixels, &unchanged] {
            kernel::ThreadScope scope(*a->thread);
            std::uint64_t v0 = a->thread->clock().now();
            std::vector<std::uint32_t> last = surfacePixels(*a);
            for (int f = 0; f < kFrames; ++f) {
                std::int64_t vertices = f % 2 ? 36 : 24;
                callSym(a->gles, "glClearColor", *a->env,
                        {0.1, 0.2, 0.3, 1.0});
                callSym(a->gles, "glClear", *a->env, {std::int64_t{0x4000}});
                callSym(a->gles, "glDrawArrays", *a->env,
                        {std::int64_t{4}, std::int64_t{0}, vertices});
                if (a->ios)
                    callSym(a->ctx, ios::kEaglPresent, *a->env,
                            {a->surface});
                else
                    callSym(a->ctx, "eglSwapBuffers", *a->env,
                            {a->surface});
                std::vector<std::uint32_t> now = surfacePixels(*a);
                if (now == last)
                    ++unchanged;
                last = std::move(now);
            }
            return a->thread->clock().now() - v0;
        });
    }
    pool.runAll();

    EXPECT_EQ(unchanged.load(), 0);
    EXPECT_EQ(sys.surfaceFlinger().framesComposed() - frames0,
              std::uint64_t{kApps} * kFrames);
    EXPECT_EQ(sys.framebuffer().presentCount() - presents0,
              std::uint64_t{kApps} * kFrames);
}

} // namespace
} // namespace cider
