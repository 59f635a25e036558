/**
 * @file
 * The durable-directory layer under BranchLab's two content-addressed
 * stores, the BLTC trace cache (trace/cache.hh) and the BLSG sweep
 * journal (core/sweep_journal.hh). This is the only code that names
 * temp files, fsyncs, renames, reclaims or evicts store files; each
 * store keeps only its own file format and decides what to do when a
 * sync fails.
 *
 *  - Layout: files shard two hex digits deep,
 *    `<root>/<hh>/<file>`, where `hh` leads the file's 64-bit content
 *    hash, so a large store never piles thousands of files into one
 *    directory.
 *  - Publish: the caller writes the complete file to a temp name
 *    `<path>.tmp-<pid>-<sequence>` (the sequence is a process-wide
 *    atomic counter, so concurrent writers -- threads or processes --
 *    never share a temp file); the temp is fsync'd, renamed over
 *    `<path>`, and the shard directory is fsync'd. A crash leaves the
 *    old file or the complete new one, never a torn file under the
 *    published name. Every failed publish unlinks its temp.
 *  - Reclaim: temps older than a grace period are orphans of killed
 *    writers and are removed; young ones may belong to a live writer
 *    sharing the directory and are kept.
 *  - Byte cap: evict least-recently-used store files (by mtime) until
 *    the store fits, never touching the files the caller names as its
 *    own publishes. An optional per-file weight breaks mtime ties:
 *    among equally stale files, the one with the least weight per byte
 *    goes first.
 *
 * Telemetry, under the store's prefix: `<prefix>.evictions`,
 * `.bytes_evicted`, `.tmp_reclaimed` (stale temps removed) and
 * `.tmp_evicted` (temps unlinked after a failed publish).
 */

#ifndef BRANCHLAB_SUPPORT_DURABLE_DIR_HH
#define BRANCHLAB_SUPPORT_DURABLE_DIR_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace branchlab
{

/** @p value as 16 zero-padded lower-case hex digits. */
std::string hash16(std::uint64_t value);

/**
 * Pick a store's byte cap: @p configured if non-zero, else the
 * environment variable @p env_name, else 0 (unbounded). An
 * unparsable variable warns and counts as unset.
 */
std::uint64_t resolveByteCap(std::uint64_t configured,
                             const char *env_name);

/** One store directory. Default-constructed instances have an empty
 *  root; stores treat that as disabled and never call into it. */
class DurableDir
{
  public:
    /** Write the complete file at the given temp path. Returns false
     *  (after saying why) when the write failed. */
    using WriteFn = std::function<bool(const std::string &tmp_path)>;

    /** A store file's recompute weight for the eviction tie-break. */
    using WeightFn =
        std::function<std::uint64_t(const std::filesystem::path &)>;

    /** What publish() does when the temp file cannot be fsync'd. */
    enum class OnSyncFailure
    {
        /** Unlink the temp; nothing is published. */
        Discard,
        /** Publish anyway (a reader must detect torn files). */
        Publish,
    };

    struct PublishResult
    {
        /** The complete file is visible under its path. */
        bool published = false;
        /** False when an fsync of the file or its directory failed. */
        bool synced = true;
    };

    DurableDir() = default;

    /**
     * @param root            the store's top directory
     * @param telemetry_prefix counter prefix ("trace_cache", ...)
     * @param extension       suffix of published store files
     *                        (".bltc", ...), the files the byte cap
     *                        counts
     */
    DurableDir(std::string root, std::string telemetry_prefix,
               std::string extension);

    const std::string &root() const { return root_; }

    /** `<root>/<first two hex digits of @p hash>/<file_name>`. */
    std::string shardPath(std::uint64_t hash,
                          const std::string &file_name) const;

    /** Every published store file under the root, sorted by path. */
    std::vector<std::string> storeFiles() const;

    /** Publish a new file at @p path (see the file comment). */
    PublishResult publish(const std::string &path, const WriteFn &write,
                          OnSyncFailure on_sync_failure) const;

    /** Remove temps left behind by killed writers. */
    void reclaimStaleTemps() const;

    /**
     * Evict least-recently-used store files until they total at most
     * @p max_bytes (0 = unbounded: no walk at all). Files in @p own
     * are never evicted, so even a cap smaller than one file leaves
     * the caller's newest publishes usable.
     */
    void enforceByteCap(std::uint64_t max_bytes,
                        const std::vector<std::string> &own,
                        const WeightFn &weight = {}) const;

  private:
    void discardTemp(const std::string &tmp) const;

    std::string root_;
    std::string prefix_;
    std::string extension_;
};

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_DURABLE_DIR_HH
