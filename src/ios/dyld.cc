#include "ios/dyld.h"

#include <deque>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "ios/libsystem.h"

namespace cider::ios {

namespace {

// Link-edit work per image (symbol binding, rebasing), in cycles.
constexpr double kLinkCycles = 30000;
// With the prelinked shared cache, per-image work collapses to a
// fraction: the cache is mapped once and images are pre-bound.
constexpr double kSharedCacheLinkCycles = 1500;

} // namespace

Dyld::Dyld(binfmt::LibraryRegistry &libraries, std::string library_dir)
    : libraries_(libraries), libraryDir_(std::move(library_dir))
{}

DyldImages &
Dyld::images(binfmt::UserEnv &env)
{
    return env.process().ext().get<DyldImages>("dyld.images");
}

const binfmt::Symbol *
Dyld::resolve(binfmt::UserEnv &env, const std::string &symbol)
{
    DyldImages &table = images(env);
    for (const binfmt::LibraryImage *img : table.loaded)
        if (const binfmt::Symbol *sym = img->exports.find(symbol))
            return sym;
    return nullptr;
}

void
Dyld::loadImage(binfmt::UserEnv &env, const std::string &name,
                bool shared_cache, DyldImages &table)
{
    if (table.byName.count(name))
        return;
    const binfmt::LibraryImage *img = libraries_.find(name);
    if (!img) {
        warn("dyld: image not found: ", name);
        return;
    }

    LibSystem libc(env);
    if (!shared_cache) {
        // Walk the filesystem and map the image individually. These
        // pages are what fork() must write-protect-sweep.
        int fd = libc.open(libraryDir_ + "/" + name,
                           kernel::oflag::RDONLY);
        if (fd >= 0)
            libc.close(fd);
        charge(env.kernel.profile().cyclesToNs(kLinkCycles));
        env.process().mem().addMapping("dylib:" + name, img->pages);
    } else {
        // Shared-cache images live in the system-wide shared-region
        // VmObject mapped once in bootstrap(); no per-image mapping.
        charge(env.kernel.profile().cyclesToNs(kSharedCacheLinkCycles));
    }
    table.loaded.push_back(img);
    table.byName[name] = img;

    // dyld registers an exit-time callback for every image, and the
    // image's own runtime may install pthread_atfork callbacks.
    libc.atexit([] {});
    for (int i = 0; i < img->atforkHandlers; ++i)
        libc.pthreadAtfork([] {}, [] {}, [] {});
    for (int i = 1; i < img->exitHandlers; ++i)
        libc.atexit([] {});

    if (img->initializer)
        img->initializer(env);

    // Recurse into dependencies (already-loaded ones are skipped).
    for (const std::string &dep : img->deps)
        loadImage(env, dep, shared_cache, table);
}

void
Dyld::bootstrap(binfmt::UserEnv &env, const binfmt::MachOImage &image)
{
    bool shared_cache = env.kernel.profile().dyldSharedCache;
    if (sharedCacheOverride_ >= 0)
        shared_cache = sharedCacheOverride_ != 0;

    if (shared_cache) {
        // One mapping covers the whole prelinked cache: the cache is
        // a single system-wide VmObject (created on first boot of any
        // process), entered into this task as a shared submap that
        // fork aliases for free.
        charge(env.kernel.profile().storageOpenNs);
        std::uint64_t cache_pages = 0;
        for (const std::string &name : libraries_.names())
            if (const binfmt::LibraryImage *img = libraries_.find(name))
                cache_pages += img->pages;
        kernel::VmObjectPtr region =
            env.kernel.vm().sharedRegion("dyld.shared-cache", cache_pages);
        if (!env.process().mem().hasMapping("dyld.shared-cache"))
            env.process().mem().mapObject("dyld.shared-cache",
                                          std::move(region),
                                          kernel::VM_PROT_READ,
                                          /*cow=*/false, /*shared=*/true);
    }

    DyldImages &table = images(env);
    for (const std::string &dep : image.dylibs)
        loadImage(env, dep, shared_cache, table);
}

binfmt::MachOBootstrap
Dyld::asBootstrap()
{
    return [this](binfmt::UserEnv &env, const binfmt::MachOImage &image) {
        bootstrap(env, image);
    };
}

} // namespace cider::ios
