/**
 * @file
 * Shared program builders and trace-entry file helpers for the
 * BranchLab test suite.
 */

#ifndef BRANCHLAB_TESTS_HELPERS_HH
#define BRANCHLAB_TESTS_HELPERS_HH

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "ir/builder.hh"
#include "ir/layout.hh"
#include "ir/verifier.hh"
#include "support/le_codec.hh"
#include "trace/format.hh"
#include "trace/record.hh"
#include "vm/machine.hh"

namespace branchlab::test
{

/**
 * Countdown loop: n iterations of a do-while (one taken-backward
 * conditional per iteration except the last), then halt.
 * Outputs n on channel 1.
 */
inline ir::Program
buildCountdown(ir::Word n)
{
    ir::Program prog("countdown");
    ir::IrBuilder b(prog);
    b.beginFunction("main");
    const ir::Reg i = b.newReg();
    const ir::Reg total = b.newReg();
    b.ldiTo(i, n);
    b.ldiTo(total, 0);
    b.doWhile(
        [&] {
            b.emitBinaryImmTo(ir::Opcode::Add, total, total, 1);
            b.emitBinaryImmTo(ir::Opcode::Sub, i, i, 1);
        },
        [&] { return ir::IrBuilder::cmpGti(i, 0); });
    b.out(total, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/** Recursive factorial; outputs fact(n) on channel 1. */
inline ir::Program
buildFactorial(ir::Word n)
{
    ir::Program prog("factorial");
    ir::IrBuilder b(prog);
    const ir::FuncId fact = b.declareFunction("fact", 1);
    b.beginDeclared(fact);
    {
        const ir::Reg x = b.arg(0);
        b.ifThen([&] { return ir::IrBuilder::cmpLei(x, 1); },
                 [&] { b.ret(b.ldi(1)); });
        const ir::Reg x1 = b.subi(x, 1);
        const ir::Reg rest = b.call(fact, {x1});
        b.ret(b.mul(x, rest));
    }
    b.endFunction();
    b.beginFunction("main");
    {
        const ir::Reg arg = b.ldi(n);
        const ir::Reg result = b.call(fact, {arg});
        b.out(result, 1);
        b.halt();
    }
    b.endFunction();
    return prog;
}

/** Run a program to completion and return its run result. */
inline vm::RunResult
runProgram(const ir::Program &prog, trace::TraceSink *sink = nullptr,
           std::vector<ir::Word> input = {})
{
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    vm::Machine machine(prog, layout);
    if (sink != nullptr)
        machine.setSink(sink);
    if (!input.empty())
        machine.setInput(0, std::move(input));
    return machine.run();
}

/** The whole file at @p path. */
inline std::string
readFileBytes(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(file),
            std::istreambuf_iterator<char>()};
}

inline void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/**
 * Recompute the checksums of the BLTC entry file at @p path after a
 * deliberate edit -- every section checksum whose section fits the
 * file, then the header checksum -- so a test reaches the validators
 * behind the checksums, as if a writer had produced the edited entry.
 */
inline void
resealEntryFile(const std::string &path)
{
    std::string bytes = readFileBytes(path);
    auto *data = reinterpret_cast<std::uint8_t *>(bytes.data());
    const auto store = [&](std::uint64_t at, std::uint64_t value) {
        std::string le;
        appendLe64(le, value);
        std::memcpy(data + at, le.data(), le.size());
    };
    // The section count follows magic, version, feature bits, content
    // hash and runs.
    const std::uint32_t count = loadLe32(data + 28);
    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint64_t row =
            trace::kEntryHeaderBytes + s * trace::kSectionRecordBytes;
        const std::uint64_t offset = loadLe64(data + row);
        const std::uint64_t length = loadLe64(data + row + 8);
        if (offset <= bytes.size() && length <= bytes.size() - offset)
            store(row + 16, trace::checksum64(data + offset, length));
    }
    const std::uint64_t sum_at = trace::headerChecksumOffset(count);
    store(sum_at, trace::checksum64(data, sum_at));
    writeFileBytes(path, bytes);
}

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_HELPERS_HH
