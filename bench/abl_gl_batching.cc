/**
 * @file
 * Ablation: OpenGL ES call aggregation across the persona boundary.
 *
 * The paper's future-work proposal for the 20-37% 3D overhead is
 * "aggregating OpenGL ES calls into a single diplomat". This bench
 * replays a complex frame's call stream through diplomats with batch
 * sizes 1 (the prototype), 8, 64, and 256, plus the direct domestic
 * path as the ceiling.
 */

#include "bench/bench_util.h"
#include "diplomat/diplomat.h"

namespace cider::bench {
namespace {

constexpr int kCallsPerFrame = 4000;
constexpr int kFrames = 5;

} // namespace
} // namespace cider::bench

int
main()
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    ResultTable table("Abl.gl-batching", "ns/frame", false);

    sys.runInProcess("ablgl", kernel::Persona::Ios,
                     [&](binfmt::UserEnv &env) {
        diplomat::DiplomaticLibrary dlib(sys.androidLibraries(),
                                         "libGLESv2.so");
        diplomat::Diplomat *uniform = dlib.find("glUniform1f");
        diplomat::Diplomat *draw = dlib.find("glDrawArrays");
        std::vector<binfmt::Value> uniform_args{std::int64_t{1}, 0.5};
        std::vector<binfmt::Value> draw_args{
            std::int64_t{4}, std::int64_t{0}, std::int64_t{64}};
        // Warm the symbol caches.
        uniform->call(env, uniform_args);
        draw->call(env, draw_args);

        // The domestic ceiling: no mediation at all.
        const binfmt::SymbolTable &gl =
            sys.androidLibraries().find("libGLESv2.so")->exports;
        std::uint64_t direct_ns = measureVirtual([&] {
            for (int f = 0; f < kFrames; ++f)
                for (int i = 0; i < kCallsPerFrame; ++i) {
                    if (i % 20 == 19)
                        gl.find("glDrawArrays")->fn(env, draw_args);
                    else
                        gl.find("glUniform1f")->fn(env, uniform_args);
                }
        });
        table.set("direct(domestic)", SystemConfig::CiderIos,
                  static_cast<double>(direct_ns) / kFrames);

        // Prototype behaviour: one diplomat per call.
        std::uint64_t per_call_ns = measureVirtual([&] {
            for (int f = 0; f < kFrames; ++f)
                for (int i = 0; i < kCallsPerFrame; ++i) {
                    if (i % 20 == 19)
                        draw->call(env, draw_args);
                    else
                        uniform->call(env, uniform_args);
                }
        });
        table.set("batch-1(prototype)", SystemConfig::CiderIos,
                  static_cast<double>(per_call_ns) / kFrames);

        // Aggregated crossings.
        for (int batch : {8, 64, 256}) {
            std::uint64_t ns = measureVirtual([&] {
                for (int f = 0; f < kFrames; ++f) {
                    int emitted = 0;
                    while (emitted < kCallsPerFrame) {
                        int n = std::min(batch,
                                         kCallsPerFrame - emitted);
                        std::vector<std::vector<binfmt::Value>> calls(
                            static_cast<std::size_t>(n),
                            uniform_args);
                        uniform->callBatched(env, calls);
                        emitted += n;
                    }
                }
            });
            table.set("batch-" + std::to_string(batch),
                      SystemConfig::CiderIos,
                      static_cast<double>(ns) / kFrames);
        }
        return 0;
    });

    printTables({&table});
    return 0;
}
