/**
 * @file
 * Ablation: diplomatic function call overhead, decomposed.
 *
 * Section 6.3 attributes the 3D loss to per-call mediation. This
 * bench isolates the pieces: a direct domestic call, a bare
 * set_persona round trip, and full diplomat calls with growing
 * argument counts (marshalling cost).
 */

#include "bench/bench_util.h"
#include "diplomat/diplomat.h"

namespace cider::bench {
namespace {

constexpr int kCalls = 1000;

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

    // A no-op domestic export to call through the machinery.
    binfmt::LibraryImage lib;
    lib.name = "libnoop.so";
    lib.exports.add("noop",
                    [](binfmt::UserEnv &, std::vector<binfmt::Value> &) {
                        return binfmt::Value{std::int64_t{0}};
                    });
    sys.androidLibraries().add(std::move(lib));

    ResultTable table("Abl.diplomat", "ns/call", false);

    sys.runInProcess("abl", kernel::Persona::Ios, [&](binfmt::UserEnv
                                                          &env) {
        const binfmt::Symbol *direct =
            sys.androidLibraries().find("libnoop.so")->exports.find(
                "noop");

        // Direct call (no persona machinery) — the floor.
        std::vector<binfmt::Value> no_args;
        std::uint64_t direct_ns = measureVirtual([&] {
            for (int i = 0; i < kCalls; ++i)
                direct->fn(env, no_args);
        });
        table.set("direct-call", SystemConfig::CiderIos,
                  static_cast<double>(direct_ns) / kCalls);

        // Bare set_persona round trip.
        persona::PersonaManager *mgr = sys.personaManager();
        std::uint64_t switch_ns = measureVirtual([&] {
            for (int i = 0; i < kCalls; ++i) {
                mgr->setPersona(env.thread, kernel::Persona::Android);
                mgr->setPersona(env.thread, kernel::Persona::Ios);
            }
        });
        table.set("set_persona-pair", SystemConfig::CiderIos,
                  static_cast<double>(switch_ns) / kCalls);

        // Full diplomat calls with 0 / 2 / 8 arguments.
        for (int nargs : {0, 2, 8}) {
            diplomat::DiplomaticLibrary dlib(sys.androidLibraries(),
                                             "libnoop.so");
            diplomat::Diplomat *d = dlib.find("noop");
            std::vector<binfmt::Value> args(
                static_cast<std::size_t>(nargs),
                binfmt::Value{std::int64_t{1}});
            d->call(env, args); // exclude first-load cost
            std::uint64_t ns = measureVirtual([&] {
                for (int i = 0; i < kCalls; ++i)
                    d->call(env, args);
            });
            table.set("diplomat-" + std::to_string(nargs) + "args",
                      SystemConfig::CiderIos,
                      static_cast<double>(ns) / kCalls);
        }

        // First-call (load + symbol search) cost.
        diplomat::DiplomaticLibrary cold(sys.androidLibraries(),
                                         "libnoop.so");
        std::uint64_t first_ns = measureVirtual([&] {
            std::vector<binfmt::Value> args;
            cold.find("noop")->call(env, args);
        });
        table.set("first-call(load)", SystemConfig::CiderIos,
                  static_cast<double>(first_ns));
        return 0;
    });

    printTables({&table});
    return 0;
}
