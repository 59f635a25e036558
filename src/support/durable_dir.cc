#include "support/durable_dir.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace branchlab
{

namespace fs = std::filesystem;

namespace
{

/** Temps older than this are orphans of a killed writer. Fifteen
 *  minutes is far beyond any single store, and a young temp may
 *  belong to a live writer sharing the directory. */
constexpr std::chrono::minutes kTempGracePeriod{15};

/** The temp suffix is <pid>-<sequence>, so no two in-flight writers
 *  ever share a temp file. */
std::atomic<std::uint64_t> g_tmpSequence{0};

/** open + fsync + close; works on files and directories. */
bool
syncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

void
bump(const std::string &prefix, const char *name, std::uint64_t by = 1)
{
    obs::Registry::global().counter(prefix + name).add(by);
}

/** Every regular file under @p root, in walk order. */
template <typename Visit>
void
walkFiles(const std::string &root, Visit visit)
{
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(root, fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        std::error_code file_ec;
        if (it->is_regular_file(file_ec) && !file_ec)
            visit(*it);
    }
}

} // namespace

std::string
hash16(std::uint64_t value)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, value >>= 4)
        out[static_cast<std::size_t>(i)] = kHex[value & 0xf];
    return out;
}

std::uint64_t
resolveByteCap(std::uint64_t configured, const char *env_name)
{
    if (configured != 0)
        return configured;
    if (const char *env = std::getenv(env_name)) {
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            return parsed;
        blab_warn("ignoring unparsable ", env_name, "='", env, "'");
    }
    return 0;
}

DurableDir::DurableDir(std::string root, std::string telemetry_prefix,
                       std::string extension)
    : root_(std::move(root)), prefix_(std::move(telemetry_prefix)),
      extension_(std::move(extension))
{}

std::string
DurableDir::shardPath(std::uint64_t hash,
                      const std::string &file_name) const
{
    return (fs::path(root_) / hash16(hash).substr(0, 2) / file_name)
        .string();
}

std::vector<std::string>
DurableDir::storeFiles() const
{
    std::vector<std::string> paths;
    walkFiles(root_, [&](const fs::directory_entry &entry) {
        if (entry.path().extension() == extension_)
            paths.push_back(entry.path().string());
    });
    std::sort(paths.begin(), paths.end());
    return paths;
}

void
DurableDir::discardTemp(const std::string &tmp) const
{
    std::error_code ec;
    fs::remove(tmp, ec);
    bump(prefix_, ".tmp_evicted");
}

DurableDir::PublishResult
DurableDir::publish(const std::string &path, const WriteFn &write,
                    OnSyncFailure on_sync_failure) const
{
    PublishResult result;
    const fs::path parent = fs::path(path).parent_path();
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (ec) {
        blab_warn("cannot create store directory '", parent.string(),
                  "': ", ec.message());
        return result;
    }
    const std::string tmp =
        path + ".tmp-" + std::to_string(static_cast<long>(::getpid())) +
        "-" +
        std::to_string(g_tmpSequence.fetch_add(
            1, std::memory_order_relaxed));
    if (!write(tmp)) {
        discardTemp(tmp);
        return result;
    }
    // Durability before visibility: the bytes reach the disk before
    // the rename can publish the name, and the directory entry is
    // synced after.
    result.synced = syncPath(tmp);
    if (!result.synced && on_sync_failure == OnSyncFailure::Discard) {
        discardTemp(tmp);
        return result;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        blab_warn("cannot publish '", path, "': ", ec.message());
        discardTemp(tmp);
        return result;
    }
    result.published = true;
    if (!syncPath(parent.string()))
        result.synced = false;
    return result;
}

void
DurableDir::reclaimStaleTemps() const
{
    const auto now = fs::file_time_type::clock::now();
    std::vector<fs::path> stale;
    walkFiles(root_, [&](const fs::directory_entry &entry) {
        if (entry.path().filename().string().find(".tmp-") ==
            std::string::npos)
            return;
        std::error_code ec;
        const auto mtime = entry.last_write_time(ec);
        if (!ec && now - mtime >= kTempGracePeriod)
            stale.push_back(entry.path());
    });
    for (const fs::path &path : stale) {
        std::error_code ec;
        if (fs::remove(path, ec) && !ec) {
            bump(prefix_, ".tmp_reclaimed");
            blab_inform("reclaimed stale temp '", path.string(), "'");
        }
    }
}

void
DurableDir::enforceByteCap(std::uint64_t max_bytes,
                           const std::vector<std::string> &own,
                           const WeightFn &weight) const
{
    if (max_bytes == 0)
        return;
    struct Row
    {
        fs::path path;
        std::uint64_t size = 0;
        std::uint64_t weight = 1;
        fs::file_time_type mtime;
    };
    std::vector<Row> rows;
    std::uint64_t total = 0;
    walkFiles(root_, [&](const fs::directory_entry &entry) {
        if (entry.path().extension() != extension_)
            return;
        Row row;
        std::error_code ec;
        row.path = entry.path();
        row.size = entry.file_size(ec);
        if (ec)
            return;
        row.mtime = entry.last_write_time(ec);
        if (ec)
            return;
        if (weight)
            row.weight = weight(row.path);
        total += row.size;
        rows.push_back(std::move(row));
    });
    if (total <= max_bytes)
        return;
    const auto density = [](const Row &row) {
        return static_cast<double>(row.weight) /
               static_cast<double>(std::max<std::uint64_t>(1, row.size));
    };
    std::sort(rows.begin(), rows.end(), [&](const Row &a, const Row &b) {
        if (a.mtime != b.mtime || !weight)
            return a.mtime < b.mtime;
        return density(a) < density(b);
    });
    std::vector<std::string> keep;
    keep.reserve(own.size());
    for (const std::string &path : own)
        keep.push_back(fs::path(path).lexically_normal().string());
    for (const Row &row : rows) {
        if (total <= max_bytes)
            break;
        if (std::find(keep.begin(), keep.end(),
                      row.path.lexically_normal().string()) != keep.end())
            continue;
        std::error_code ec;
        if (fs::remove(row.path, ec) && !ec) {
            total -= row.size;
            bump(prefix_, ".evictions");
            bump(prefix_, ".bytes_evicted", row.size);
            blab_inform("evicted '", row.path.string(), "' (", row.size,
                        " bytes)");
        }
    }
}

} // namespace branchlab
