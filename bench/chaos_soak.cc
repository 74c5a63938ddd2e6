/**
 * @file
 * Chaos soak: boot the full Cider system, install an .ipa, and run a
 * syscall-heavy workload under seeded fault storms.
 *
 * The soak asserts the FaultRail hardening contract end to end:
 *
 *  1. Determinism: with every fault site registered but disarmed,
 *     two boots produce bit-identical virtual-time series for the
 *     workload. Registration alone must cost nothing.
 *  2. Graceful degradation: under seeded probability storms across
 *     the site catalog (allocation, VFS, Mach IPC, binfmt, psynch,
 *     signal delivery) with the per-process OOM killer armed, every
 *     failure surfaces as an errno / kern_return_t / process exit --
 *     never an abort. The soak completing at all is the proof.
 *  3. Invariant preservation: after each storm is disarmed, a clean
 *     workload run still passes on the same booted system.
 *
 * Exit code 0 on success, 1 on any violated assertion. A per-seed
 * fault report (trips per site, exit codes observed) is written to
 * BENCH_chaos_faults.txt for CI artifact upload, and machine-readable
 * results (one row per phase/seed) to BENCH_chaos.json in the shared
 * BenchJson schema.
 *
 * Usage: chaos_soak [seed ...] [--seed=N] [--duration=RUNS]
 *                   [--storm=0|1]
 * Env (CLI wins): CIDER_CHAOS_SEEDS (comma-separated),
 *                 CIDER_CHAOS_DURATION, CIDER_CHAOS_STORM.
 * Default seeds: 101 202 303; default duration: 6 workload runs per
 * storm; --storm=0 skips the storm phase (determinism only).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "android/dalvik.h"
#include "android/dexjit.h"
#include "base/cost_clock.h"
#include "base/logging.h"
#include "bench/bench_util.h"
#include "binfmt/dex.h"
#include "core/app_package.h"
#include "core/cider_system.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"
#include "kernel/file.h"
#include "xnu/mach_traps.h"

namespace cider::bench {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;
using kernel::FaultRail;
using kernel::SyscallResult;
using kernel::TrapClass;
using kernel::makeArgs;

/**
 * Every fault site the storm arms. Registering the catalog up front
 * also pins the /proc/cider/faults layout, so the determinism phase
 * exercises "registered but disarmed" rather than "unknown".
 */
const char *const kSiteCatalog[] = {
    "zone.alloc",      "kalloc.alloc",     "vfs.lookup",
    "vfs.create",      "mach.port.alloc",  "mach.name.alloc",
    "mach.right.copyout", "mach.msg.send", "mach.msg.receive",
    "binfmt.elf",      "binfmt.macho",     "psynch.wait",
    "signal.deliver",  "dexjit.translate", "vm.allocate",
    "vm.fault",
};

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "chaos_soak: FAIL: %s\n", what.c_str());
    }
}

/**
 * The workload an installed app runs: a deterministic storm of VFS,
 * Mach IPC (with receive timeouts), psynch, signal, and process
 * traps. Every call tolerates failure -- under an armed rail any of
 * them may come back with an error, and the contract is that errors
 * are *all* that comes back.
 */
int
workloadMain(binfmt::UserEnv &env)
{
    kernel::Kernel &k = env.kernel;
    kernel::Thread &t = env.thread;

    auto trap = [&](TrapClass cls, int nr, kernel::SyscallArgs args) {
        return k.trap(t, cls, nr, std::move(args));
    };

    int delivered = 0;
    kernel::SignalAction act;
    act.kind = kernel::SignalAction::Kind::Handler;
    act.fn = [&delivered](int, const kernel::SigInfo &) { ++delivered; };
    k.sysSigaction(t, kernel::lsig::USR1, act);

    for (int round = 0; round < 24; ++round) {
        // --- VFS churn: create, write, read back, unlink.
        std::string dir = "/tmp/chaos" + std::to_string(round);
        k.sysMkdir(t, dir);
        for (int i = 0; i < 4; ++i) {
            std::string path = dir + "/f" + std::to_string(i);
            SyscallResult fd = k.sysOpen(
                t, path, kernel::oflag::WRONLY | kernel::oflag::CREAT);
            if (fd.ok()) {
                k.sysWrite(t, static_cast<kernel::Fd>(fd.value),
                           Bytes{1, 2, 3, 4});
                k.sysClose(t, static_cast<kernel::Fd>(fd.value));
            }
            SyscallResult rd = k.sysOpen(t, path, kernel::oflag::RDONLY);
            if (rd.ok()) {
                Bytes buf;
                k.sysRead(t, static_cast<kernel::Fd>(rd.value), buf, 4);
                k.sysClose(t, static_cast<kernel::Fd>(rd.value));
            }
            k.sysUnlink(t, path);
        }
        k.sysRmdir(t, dir);

        // --- Mach IPC: allocate a port, self-send, timed receive,
        // destroy. A fault anywhere surfaces as a kern_return_t (or,
        // with the OOM killer armed, as this process's clean death).
        xnu::mach_port_name_t port = xnu::MACH_PORT_NULL;
        SyscallResult r = trap(
            TrapClass::XnuMach, xnu::machno::PORT_ALLOCATE,
            makeArgs(static_cast<std::uint64_t>(xnu::PortRight::Receive),
                     static_cast<void *>(&port)));
        if (r.ok() && r.value == xnu::KERN_SUCCESS &&
            port != xnu::MACH_PORT_NULL) {
            xnu::MachMessage msg;
            msg.header.remotePort = port;
            msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
            msg.header.msgId = 4000 + round;
            // An OOL region rides along: on receive it lands as a COW
            // mapping, and the write below breaks its pages through
            // the "vm.fault" site.
            xnu::OolDescriptor ool;
            ool.data = Bytes(static_cast<std::size_t>(512),
                             static_cast<std::uint8_t>(round));
            msg.ool.push_back(std::move(ool));
            trap(TrapClass::XnuMach, xnu::machno::MACH_MSG,
                 makeArgs(static_cast<void *>(&msg), xnu::machmsg::SEND,
                          std::uint64_t{0},
                          static_cast<void *>(nullptr)));
            xnu::MachMessage rcv;
            trap(TrapClass::XnuMach, xnu::machno::MACH_MSG,
                 makeArgs(static_cast<void *>(nullptr),
                          xnu::machmsg::RCV | xnu::machmsg::RCV_TIMEOUT,
                          static_cast<std::uint64_t>(port),
                          static_cast<void *>(&rcv),
                          std::uint64_t{50'000}));
            if (!rcv.ool.empty() && rcv.ool[0].address != 0) {
                Bytes poke{7, 7};
                trap(TrapClass::XnuMach, xnu::machno::VM_WRITE,
                     makeArgs(rcv.ool[0].address,
                              static_cast<const Bytes *>(&poke)));
                trap(TrapClass::XnuMach, xnu::machno::VM_DEALLOCATE,
                     makeArgs(rcv.ool[0].address));
            }
            trap(TrapClass::XnuMach, xnu::machno::PORT_DESTROY,
                 makeArgs(static_cast<std::uint64_t>(port)));
        }

        // --- VM traps: allocate, write, read back, deallocate. An
        // armed "vm.allocate" rail surfaces as KERN_RESOURCE_SHORTAGE
        // (or, with the OOM killer armed, a clean process death).
        std::uint64_t vmaddr = 0;
        SyscallResult va = trap(
            TrapClass::XnuMach, xnu::machno::VM_ALLOCATE,
            makeArgs(std::uint64_t{8192}, static_cast<void *>(&vmaddr)));
        if (va.ok() && va.value == xnu::KERN_SUCCESS && vmaddr != 0) {
            Bytes pattern{5, 6, 7, 8};
            trap(TrapClass::XnuMach, xnu::machno::VM_WRITE,
                 makeArgs(vmaddr, static_cast<const Bytes *>(&pattern)));
            Bytes back;
            trap(TrapClass::XnuMach, xnu::machno::VM_READ,
                 makeArgs(vmaddr, std::uint64_t{4},
                          static_cast<Bytes *>(&back)));
            trap(TrapClass::XnuMach, xnu::machno::VM_DEALLOCATE,
                 makeArgs(vmaddr));
        }

        // --- psynch: signal then timed wait on a Mach semaphore.
        std::uint64_t sem = 0x7000 + static_cast<std::uint64_t>(round);
        trap(TrapClass::XnuMach, xnu::machno::SEMAPHORE_SIGNAL,
             makeArgs(sem));
        trap(TrapClass::XnuMach, xnu::machno::SEMAPHORE_WAIT,
             makeArgs(sem, std::uint64_t{25'000}));

        // --- Signals: self-delivery through the hardened path.
        k.sysKill(t, t.process().pid(), kernel::lsig::USR1);
    }

    return 0;
}

/** A tiny app shipped inside the .ipa. */
int
ipaAppMain(binfmt::UserEnv &env)
{
    kernel::Kernel &k = env.kernel;
    SyscallResult fd = k.sysOpen(env.thread, "/tmp/ipa_probe",
                                 kernel::oflag::WRONLY |
                                     kernel::oflag::CREAT);
    if (fd.ok())
        k.sysClose(env.thread, static_cast<kernel::Fd>(fd.value));
    return 0;
}

/** @p count copies of a sum-1..n loop method, "sum0".."sumN-1". */
void
buildJitMethods(binfmt::DexFile &file, int count)
{
    for (int m = 0; m < count; ++m) {
        binfmt::DexAssembler as(file, "sum" + std::to_string(m), 2);
        as.constI(0).store(1);
        std::int64_t top = as.here();
        as.load(0);
        std::size_t done = as.jz();
        as.load(1).load(0).op(binfmt::DexOp::Add).store(1);
        as.load(0).constI(1).op(binfmt::DexOp::Sub).store(0);
        as.op(binfmt::DexOp::Jmp, top);
        as.patch(done, as.here());
        as.load(1).ret();
        as.finish();
    }
}

/**
 * Dalvik/JIT storm segment. Warm-up 0 means every fresh method run
 * attempts a translation, so the "dexjit.translate" site sees real
 * traffic while the storm is armed. The contract under fire: a
 * failed translation pins the method to the interpreter -- results
 * stay correct and nothing aborts. Returns per-run (virtual-ns,
 * result) pairs so the determinism phase can reuse it disarmed.
 */
std::vector<std::uint64_t>
jitWorkload(std::uint64_t seed)
{
    binfmt::DexFile file;
    constexpr int kMethods = 6;
    buildJitMethods(file, kMethods);

    android::DalvikVm vm(hw::DeviceProfile::nexus7());
    android::TranslationCache cache;
    vm.setTranslationCache(&cache);
    vm.setJitEnabled(true);
    vm.setJitWarmup(0);

    std::vector<std::uint64_t> series;
    CostClock clock;
    CostScope scope(clock);
    for (int round = 0; round < 2; ++round) {
        for (int m = 0; m < kMethods; ++m) {
            android::DexVal r;
            std::uint64_t ns = measureVirtual([&] {
                r = vm.run(file, "sum" + std::to_string(m),
                           {std::int64_t{100}});
            });
            check(android::dexI(r) == 5050,
                  "jit workload wrong result under storm (seed " +
                      std::to_string(seed) + ")");
            series.push_back(ns);
        }
        // Round 2 re-translates everything: more site traffic, and
        // it proves invalidation survives an armed rail too.
        if (round == 0)
            cache.invalidateAll("chaos-storm");
    }
    android::TranslationCache::Stats stats = cache.statsSnapshot();
    check(stats.translations + stats.fallbacks >= kMethods,
          "jit workload attempted no translations (seed " +
              std::to_string(seed) + ")");
    series.push_back(stats.translations);
    series.push_back(stats.fallbacks);
    return series;
}

/** Boot a system with the workload binaries installed. */
struct Soak
{
    explicit Soak()
        : sys([] {
              SystemOptions opts;
              opts.config = SystemConfig::CiderIos;
              return opts;
          }())
    {
        sys.installMachOExecutable("/data/chaos_workload",
                                   "chaos.workload", workloadMain);
        sys.programs().add("chaos.ipa_app", ipaAppMain);
    }

    Bytes
    buildAppIpa()
    {
        core::IpaPackage package;
        package.appName = "ChaosApp";
        binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
        builder.entry("chaos.ipa_app")
            .codegen(hw::Codegen::XcodeClang)
            .segment("__TEXT", 8)
            .dylib("libSystem.dylib");
        package.binary = builder.build();
        package.icon = Bytes{9, 9, 9};
        package.infoPlist["CFBundleIdentifier"] = "com.chaos.app";
        return core::buildIpa(package);
    }

    CiderSystem sys;
};

/**
 * The virtual-time series the determinism phase compares: the main
 * thread's consumed virtual ns for each of three workload runs plus
 * the .ipa-app run (exit codes folded in so control flow is part of
 * the signature too).
 */
std::vector<std::uint64_t>
virtualSeries()
{
    Soak soak;
    // Registered-but-disarmed is the configuration under test.
    FaultRail &rail = FaultRail::global();
    rail.disarmAll();
    rail.setTracking(false);
    for (const char *site : kSiteCatalog)
        rail.site(site);

    std::vector<std::uint64_t> series;
    for (int run = 0; run < 3; ++run) {
        int rc = -1;
        std::uint64_t ns =
            soak.sys.runProgramTimed("/data/chaos_workload", {}, &rc);
        series.push_back(ns);
        series.push_back(static_cast<std::uint64_t>(rc));
    }
    std::string app = soak.sys.installIpa(soak.buildAppIpa());
    check(!app.empty(), "clean .ipa install failed");
    if (!app.empty()) {
        int rc = -1;
        series.push_back(soak.sys.runProgramTimed(app, {}, &rc));
        series.push_back(static_cast<std::uint64_t>(rc));
    }
    // The Dalvik/JIT series rides along: registered-but-disarmed
    // "dexjit.translate" must not perturb translation or virtual
    // time either.
    std::vector<std::uint64_t> jit = jitWorkload(0);
    series.insert(series.end(), jit.begin(), jit.end());
    return series;
}

/** One seeded storm; returns a human-readable report section and
 *  appends a row to @p json. @p duration is the workload run count. */
std::string
stormRun(std::uint64_t seed, int duration, BenchJson &json)
{
    auto hostStart = std::chrono::steady_clock::now();
    Soak soak;
    soak.sys.kernel().setOomKillEnabled(true);
    // Timeout storms should expire in host milliseconds, not the
    // default 100ms-per-timeout grace.
    ducttape::waitq_set_block_grace_ms(2);

    FaultRail &rail = FaultRail::global();
    rail.disarmAll();
    rail.resetCounters();
    rail.setTracking(true);

    // Seeded probability on the whole catalog; each site gets its own
    // stream derived from (seed, site index) so one site's draw count
    // never perturbs another's.
    std::uint64_t idx = 0;
    for (const char *site : kSiteCatalog)
        rail.armProbability(site, 0.02, seed * 1000 + idx++);
    // The JIT segment only attempts a dozen translations per storm;
    // at the catalog-wide 2% it would rarely trip. Every-3rd makes
    // each storm provably exercise the translate-fault fallback.
    rail.armEveryK("dexjit.translate", 3);

    std::map<int, int> exitCodes;
    std::uint64_t virtualNs = 0;
    for (int run = 0; run < duration; ++run) {
        int rc = -1;
        virtualNs +=
            soak.sys.runProgramTimed("/data/chaos_workload", {}, &rc);
        ++exitCodes[rc];
    }
    // Install + run the .ipa under fire too: a corrupt-path or
    // shortage fault must reject the package or fail the exec, not
    // wedge the installer.
    for (int run = 0; run < std::max(1, duration / 2); ++run) {
        std::string app = soak.sys.installIpa(soak.buildAppIpa());
        int rc = app.empty() ? -2 : soak.sys.runProgram(app);
        ++exitCodes[rc];
    }
    // Dalvik under fire: translations that fault must fall back to
    // the interpreter with correct results.
    jitWorkload(seed);

    // Storm over: disarm and prove the system is still whole.
    rail.disarmAll();
    rail.setTracking(false);
    ducttape::waitq_set_block_grace_ms(100);
    check(soak.sys.runProgram("/data/chaos_workload") == 0,
          "post-storm clean workload failed (seed " +
              std::to_string(seed) + ")");
    std::string app = soak.sys.installIpa(soak.buildAppIpa());
    check(!app.empty() && soak.sys.runProgram(app) == 0,
          "post-storm clean .ipa run failed (seed " +
              std::to_string(seed) + ")");

    char head[128];
    std::snprintf(head, sizeof head, "--- seed %" PRIu64 " ---\n", seed);
    std::string report = head;
    for (const auto &[rc, count] : exitCodes) {
        char line[96];
        std::snprintf(line, sizeof line, "  exit %4d x%d\n", rc, count);
        report += line;
    }
    std::uint64_t trips = 0;
    for (const auto &s : rail.snapshot()) {
        trips += s.trips;
        char line[128];
        std::snprintf(line, sizeof line,
                      "  %-24s hits %8" PRIu64 " trips %6" PRIu64 "\n",
                      s.name.c_str(), s.hits, s.trips);
        report += line;
    }
    check(trips > 0, "storm tripped no faults at all (seed " +
                         std::to_string(seed) + ")");
    // The kernel-side books survived the storm.
    check(soak.sys.trapStats().totalCalls() > 0, "trap stats wedged");
    rail.resetCounters();

    auto hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hostStart)
            .count());
    json.add("storm_" + std::to_string(seed), virtualNs, hostNs);
    json.metric("trips", static_cast<double>(trips));
    json.metric("workload_runs", duration);
    return report;
}

/** Env override: integer, falling back to @p fallback. */
long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtol(v, nullptr, 10) : fallback;
}

/** Env override: comma-separated seed list appended to @p seeds. */
void
envSeeds(const char *name, std::vector<std::uint64_t> &seeds)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return;
    for (const char *p = v; *p;) {
        char *end = nullptr;
        std::uint64_t s = std::strtoull(p, &end, 10);
        if (end == p)
            break;
        seeds.push_back(s);
        p = *end == ',' ? end + 1 : end;
    }
}

int
soakMain(int argc, char **argv)
{
    setLogQuiet(true); // fault storms are loud by design

    // Env first, then CLI on top (CLI wins). Positional args stay
    // seeds for back-compat with `chaos_soak 101 202 303`.
    std::vector<std::uint64_t> seeds;
    envSeeds("CIDER_CHAOS_SEEDS", seeds);
    int duration =
        static_cast<int>(envLong("CIDER_CHAOS_DURATION", 6));
    bool storm = envLong("CIDER_CHAOS_STORM", 1) != 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--seed=", 7) == 0)
            seeds.push_back(std::strtoull(arg + 7, nullptr, 10));
        else if (std::strncmp(arg, "--duration=", 11) == 0)
            duration = std::atoi(arg + 11);
        else if (std::strncmp(arg, "--storm=", 8) == 0)
            storm = std::atoi(arg + 8) != 0;
        else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "chaos_soak: unknown flag %s\n", arg);
            return 2;
        } else
            seeds.push_back(std::strtoull(arg, nullptr, 10));
    }
    if (seeds.empty())
        seeds = {101, 202, 303};
    if (duration < 1)
        duration = 1;

    BenchJson json("chaos");

    // Phase 1: registered-but-disarmed sites leave virtual time
    // bit-identical across two full boots.
    auto detStart = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> a = virtualSeries();
    std::vector<std::uint64_t> b = virtualSeries();
    check(a == b, "disarmed fault sites perturbed the virtual-time "
                  "series");
    check(!a.empty() && a[0] > 0, "workload consumed no virtual time");
    std::uint64_t detVirtual = 0;
    for (std::uint64_t ns : a)
        detVirtual += ns;
    json.add("determinism", static_cast<double>(detVirtual),
             static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - detStart)
                     .count()));
    json.metric("identical", a == b ? 1 : 0);

    // Phase 2: seeded storms (skipped with --storm=0, which leaves
    // only the determinism gate — useful under slow sanitizers).
    std::string report = "chaos_soak fault report\n";
    if (storm)
        for (std::uint64_t seed : seeds)
            report += stormRun(seed, duration, json);
    else
        report += "  storm phase skipped (--storm=0)\n";
    report += g_failures == 0 ? "RESULT: PASS\n" : "RESULT: FAIL\n";

    json.write();

    std::ofstream out("BENCH_chaos_faults.txt");
    out << report;
    out.close();
    std::fputs(report.c_str(), stdout);

    if (g_failures != 0) {
        std::fprintf(stderr, "chaos_soak: %d failure(s)\n", g_failures);
        return 1;
    }
    std::puts("chaos_soak: OK");
    return 0;
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    return cider::bench::soakMain(argc, argv);
}
