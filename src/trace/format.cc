#include "trace/format.hh"

#include <cstring>

#include "support/le_codec.hh"
#include "support/logging.hh"

namespace branchlab::trace
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
mixWord(std::uint64_t hash, std::uint64_t word)
{
    hash ^= word;
    return hash * kFnvPrime;
}

std::string
encodeHeader(const EntryHeader &header)
{
    std::string out;
    out.append(kEntryMagic, sizeof(kEntryMagic));
    appendLe32(out, kEntryVersion);
    appendLe64(out, header.featureBits);
    appendLe64(out, header.contentHash);
    appendLe32(out, header.runs);
    appendLe32(out, header.sectionCount);
    appendLe64(out, header.stats.instructions);
    appendLe64(out, header.stats.branches);
    appendLe64(out, header.stats.conditional);
    appendLe64(out, header.stats.condTaken);
    appendLe64(out, header.stats.uncondKnown);
    appendLe64(out, header.eventCount);
    appendLe64(out, header.maxPc);
    appendLe64(out, header.likelyCount);
    blab_assert(out.size() == kEntryHeaderBytes,
                "entry header layout drifted");
    for (const SectionRecord &section : header.sections) {
        appendLe64(out, section.offset);
        appendLe64(out, section.length);
        appendLe64(out, section.checksum);
    }
    appendLe64(out, checksum64(out.data(), out.size()));
    return out;
}

} // namespace

std::uint64_t
checksum64(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = kFnvOffset;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8)
        hash = mixWord(hash, loadLe64(p + i));
    if (i < size) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, p + i, size - i);
        hash = mixWord(hash, loadLe64(tail));
    }
    return mixWord(hash, size);
}

std::string
decodeEntryHeader(const std::uint8_t *data, std::size_t size,
                  EntryHeader &out)
{
    if (size < kEntryHeaderBytes)
        return "truncated header";
    const std::uint8_t *p = data + sizeof(kEntryMagic) + 4;
    // The section count only sizes the checksummed block; no field is
    // trusted until the header checksum over that block matches.
    const std::uint64_t sum_at = headerChecksumOffset(loadLe32(p + 20));
    if (sum_at > size - 8)
        return "section table exceeds file";
    if (checksum64(data, static_cast<std::size_t>(sum_at)) !=
        loadLe64(data + sum_at))
        return "header checksum mismatch";
    out.featureBits = loadLe64(p);
    out.contentHash = loadLe64(p + 8);
    out.runs = loadLe32(p + 16);
    out.sectionCount = loadLe32(p + 20);
    out.stats.instructions = loadLe64(p + 24);
    out.stats.branches = loadLe64(p + 32);
    out.stats.conditional = loadLe64(p + 40);
    out.stats.condTaken = loadLe64(p + 48);
    out.stats.uncondKnown = loadLe64(p + 56);
    out.eventCount = loadLe64(p + 64);
    out.maxPc = loadLe64(p + 72);
    out.likelyCount = loadLe64(p + 80);
    if (out.sectionCount < kEntrySectionCount)
        return "too few sections (" +
               std::to_string(out.sectionCount) + ")";
    const std::uint8_t *row = data + kEntryHeaderBytes;
    for (std::size_t s = 0; s < kEntrySectionCount;
         ++s, row += kSectionRecordBytes) {
        out.sections[s].offset = loadLe64(row);
        out.sections[s].length = loadLe64(row + 8);
        out.sections[s].checksum = loadLe64(row + 16);
    }
    return "";
}

EntryWriter::EntryWriter(const std::string &path)
{
    file_.open(path, std::ios::binary | std::ios::in | std::ios::out |
                         std::ios::trunc);
}

void
EntryWriter::pad(std::uint64_t target_offset)
{
    static const std::array<char, 256> zeros{};
    while (offset_ < target_offset && file_) {
        const std::uint64_t chunk = std::min<std::uint64_t>(
            zeros.size(), target_offset - offset_);
        file_.write(zeros.data(),
                    static_cast<std::streamsize>(chunk));
        offset_ += chunk;
    }
}

void
EntryWriter::beginSection(EntrySection s)
{
    const int index = static_cast<int>(s);
    blab_assert(openSection_ < 0, "section already open");
    blab_assert(index == nextSection_,
                "sections must be written in order");
    if (offset_ == 0) {
        // Reserve the header region (header, section table, header
        // checksum) the first time a section opens.
        pad(alignSection(headerChecksumOffset(kEntrySectionCount) + 8));
    } else {
        pad(alignSection(offset_));
    }
    openSection_ = index;
    header_.sections[static_cast<std::size_t>(index)].offset = offset_;
    sumHash_ = kFnvOffset;
    sumLength_ = 0;
    sumCarryLen_ = 0;
}

void
EntryWriter::write(const void *data, std::size_t size)
{
    blab_assert(openSection_ >= 0, "no open section");
    if (size == 0)
        return;
    file_.write(static_cast<const char *>(data),
                static_cast<std::streamsize>(size));
    offset_ += size;
    sumLength_ += size;
    // Incremental checksum64: drain through the partial-word carry.
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t n = size;
    if (sumCarryLen_ != 0) {
        while (sumCarryLen_ < 8 && n != 0) {
            sumCarry_[sumCarryLen_++] = *p++;
            --n;
        }
        if (sumCarryLen_ == 8) {
            sumHash_ = mixWord(sumHash_, loadLe64(sumCarry_.data()));
            sumCarryLen_ = 0;
        }
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        sumHash_ = mixWord(sumHash_, loadLe64(p + i));
    for (; i < n; ++i)
        sumCarry_[sumCarryLen_++] = p[i];
}

void
EntryWriter::endSection()
{
    blab_assert(openSection_ >= 0, "no open section");
    std::uint64_t hash = sumHash_;
    if (sumCarryLen_ != 0) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, sumCarry_.data(), sumCarryLen_);
        hash = mixWord(hash, loadLe64(tail));
    }
    hash = mixWord(hash, sumLength_);
    SectionRecord &record =
        header_.sections[static_cast<std::size_t>(openSection_)];
    record.length = sumLength_;
    record.checksum = hash;
    openSection_ = -1;
    ++nextSection_;
}

bool
EntryWriter::finish(std::string &error)
{
    blab_assert(openSection_ < 0, "finish with a section open");
    blab_assert(nextSection_ ==
                    static_cast<int>(kEntrySectionCount),
                "finish before every section was written");
    // Pad the tail so the file ends on a section boundary (keeps
    // concatenation-style tooling and mapped length math simple).
    pad(alignSection(offset_));
    bytesWritten_ = offset_;
    file_.seekp(0);
    const std::string header = encodeHeader(header_);
    file_.write(header.data(),
                static_cast<std::streamsize>(header.size()));
    file_.flush();
    if (!file_) {
        error = "entry write failed";
        return false;
    }
    return true;
}

} // namespace branchlab::trace
