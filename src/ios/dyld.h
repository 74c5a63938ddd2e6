/**
 * @file
 * dyld: the Darwin dynamic linker.
 *
 * Loads the transitive dylib closure of a Mach-O image before main
 * runs. On the Cider prototype there is no prelinked shared cache, so
 * dyld walks the filesystem and maps every library individually —
 * ~115 images and ~90 MB of mappings whether or not the binary uses
 * them. That inflates fork (page-table duplication) and exec (the
 * walk repeats) for iOS binaries; real iOS devices amortise it with
 * the shared cache. Both behaviours are implemented here, switched by
 * the device profile's dyldSharedCache flag (Figure 5's fork/exec
 * group and the shared-cache ablation).
 */

#ifndef CIDER_IOS_DYLD_H
#define CIDER_IOS_DYLD_H

#include <map>
#include <string>
#include <vector>

#include "binfmt/binfmt_registry.h"
#include "binfmt/macho.h"
#include "binfmt/program.h"

namespace cider::ios {

/** Per-process table of loaded images (key "dyld.images"). */
struct DyldImages
{
    std::vector<const binfmt::LibraryImage *> loaded;
    std::map<std::string, const binfmt::LibraryImage *> byName;
};

class Dyld
{
  public:
    /**
     * @param libraries the iOS framework/library registry.
     * @param library_dir VFS directory holding the dylib files
     *        (defaults to the iOS /usr/lib overlay).
     */
    explicit Dyld(binfmt::LibraryRegistry &libraries,
                  std::string library_dir = "/usr/lib");

    /**
     * The loader-invoked bootstrap: resolve the image's dylib
     * closure, map every library, register atfork handlers and the
     * per-image exit callbacks with libSystem, and run initialisers.
     */
    void bootstrap(binfmt::UserEnv &env,
                   const binfmt::MachOImage &image);

    /** Loaded-image table of the calling process. */
    static DyldImages &images(binfmt::UserEnv &env);

    /** dlsym: search loaded images for @p symbol. */
    static const binfmt::Symbol *resolve(binfmt::UserEnv &env,
                                         const std::string &symbol);

    /** Force shared-cache behaviour regardless of profile (ablation
     *  hook); -1 follows the profile. */
    void setSharedCacheOverride(int enabled)
    {
        sharedCacheOverride_ = enabled;
    }

    /** A MachOBootstrap adapter for the kernel loader seam. */
    binfmt::MachOBootstrap asBootstrap();

  private:
    void loadImage(binfmt::UserEnv &env, const std::string &name,
                   bool shared_cache, DyldImages &table);

    binfmt::LibraryRegistry &libraries_;
    std::string libraryDir_;
    int sharedCacheOverride_ = -1;
};

} // namespace cider::ios

#endif // CIDER_IOS_DYLD_H
