/**
 * @file
 * Per-process file descriptor table.
 */

#ifndef CIDER_KERNEL_FD_TABLE_H
#define CIDER_KERNEL_FD_TABLE_H

#include <memory>
#include <mutex>
#include <vector>

#include "kernel/file.h"
#include "kernel/types.h"

namespace cider::kernel {

/**
 * Descriptor table. Entries are shared FileDescription objects so
 * dup() and fork() share offsets and flags, as on Linux. One mutex
 * guards the slots (threads of a process share the table); a file's
 * closed() hook runs after that lock is dropped.
 */
class FdTable
{
  public:
    explicit FdTable(int max_fds = 1024) : maxFds_(max_fds) {}

    /** Install @p file at the lowest free slot; -EMFILE when full. */
    SyscallResult install(std::shared_ptr<OpenFile> file);

    /** Install an existing description (used by dup and fork). */
    SyscallResult installDescription(std::shared_ptr<FileDescription> d);

    /** Look up a descriptor; null when closed or out of range. */
    std::shared_ptr<FileDescription> get(Fd fd) const;

    SyscallResult dup(Fd fd);
    /** dup2(2): close @p new_fd if open, land the dup there. */
    SyscallResult dup2(Fd fd, Fd new_fd);
    SyscallResult close(Fd fd);

    /** fork(): take a copy of @p parent's slots (descriptions are
     *  shared). */
    void forkFrom(const FdTable &parent);

    /** Close everything (process exit) and drop CLOEXEC fds (exec). */
    void closeAll();
    void closeCloexec();

  private:
    const int maxFds_;
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<FileDescription>> slots_;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_FD_TABLE_H
