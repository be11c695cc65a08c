/**
 * @file Golden pin of the execution engine: the RunStats of a fixed
 * program set, hashed field by field over their exact bit patterns.
 *
 * The set spans the builder's program kinds (summarization, generation
 * at several KV lengths, batched steps, resumed prefill chunks), both
 * scheduling policies, both attention mappings, two model sizes and a
 * two-device system. Any change to the engine, the scheduler, the event
 * queue or the channel arbiter that moves one simulated bit fails here.
 * The pinned values are never re-pinned to follow a code change: a
 * mismatch is a bug in the change.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/workload_builder.hh"
#include "ianus/execution_engine.hh"

namespace
{

using namespace ianus;
using compiler::AttnMapping;
using compiler::BuildOptions;
using compiler::SchedulingPolicy;
using compiler::WorkloadBuilder;

/** FNV-1a over the bit pattern of every RunStats field. */
class StatsHash
{
  public:
    void
    add(std::uint64_t bits)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    template <std::size_t N>
    void
    add(const std::array<double, N> &a)
    {
        for (double v : a)
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
hashStats(const RunStats &s)
{
    StatsHash h;
    h.add(static_cast<std::uint64_t>(s.wallTicks));
    h.add(s.classBusy);
    h.add(s.classSpan);
    h.add(s.classExclusive);
    h.add(s.unitBusy);
    for (double v : {s.commands, s.muFlops, s.vuElems, s.dramReadBytes,
                     s.dramWriteBytes, s.pimWeightBytes, s.pimMacros,
                     s.pimActivates, s.pimGbBursts, s.pimRdBursts})
        h.add(v);
    return h.value();
}

struct GoldenCase
{
    const char *name;
    std::uint64_t hash;
    Tick wallTicks;
};

/** Builds and runs the program a case name stands for. */
struct Design
{
    SystemConfig sys = SystemConfig::ianusDefault();
    const char *model = "m";
    BuildOptions opts{};

    RunStats
    run(const std::function<isa::Program(const WorkloadBuilder &)> &make)
        const
    {
        WorkloadBuilder builder(sys, workloads::gpt2(model), opts);
        ExecutionEngine engine(sys, opts.devices);
        return engine.run(make(builder));
    }
};

RunStats
runCase(const std::string &name)
{
    Design pas;
    Design xl;
    xl.model = "xl";
    Design naive;
    naive.opts.policy = SchedulingPolicy::Naive;
    Design attn_pim;
    attn_pim.opts.attnMapping = AttnMapping::Pim;
    Design two_dev;
    two_dev.opts.devices = 2;
    Design cores16;
    cores16.sys.cores = 16;
    Design npu_mem;
    npu_mem.sys = SystemConfig::npuMem();
    Design partitioned;
    partitioned.sys = SystemConfig::partitioned();

    using P = isa::Program;
    using B = const WorkloadBuilder &;
    auto sum = [](std::uint64_t n) {
        return [n](B b) -> P { return b.buildSummarization(n); };
    };
    auto gen = [](std::uint64_t kv) {
        return [kv](B b) -> P { return b.buildGenerationToken(kv); };
    };
    auto batch = [](std::vector<std::uint64_t> kv) {
        return [kv](B b) -> P { return b.buildGenerationBatch(kv); };
    };
    auto chunk = [](std::uint64_t prior, std::uint64_t n, bool last) {
        return [=](B b) -> P {
            return b.buildSummarizationChunk(prior, n, last);
        };
    };

    if (name == "m/sum32") return pas.run(sum(32));
    if (name == "m/sum128") return pas.run(sum(128));
    if (name == "m/sum512") return pas.run(sum(512));
    if (name == "m/gen1") return pas.run(gen(1));
    if (name == "m/gen64") return pas.run(gen(64));
    if (name == "m/gen257") return pas.run(gen(257));
    if (name == "m/gen1024") return pas.run(gen(1024));
    if (name == "m/batch2") return pas.run(batch({64, 300}));
    if (name == "m/batch3") return pas.run(batch({128, 128, 512}));
    if (name == "m/batch4") return pas.run(batch({100, 200, 300, 400}));
    if (name == "m/chunk") return pas.run(chunk(128, 64, false));
    if (name == "m/chunk_last") return pas.run(chunk(256, 128, true));
    if (name == "xl/sum128") return xl.run(sum(128));
    if (name == "xl/gen512") return xl.run(gen(512));
    if (name == "xl/sum512") return xl.run(sum(512));
    if (name == "xl/batch2") return xl.run(batch({128, 256}));
    if (name == "naive/sum128") return naive.run(sum(128));
    if (name == "naive/gen257") return naive.run(gen(257));
    if (name == "naive/batch2") return naive.run(batch({64, 300}));
    if (name == "attn_pim/gen257") return attn_pim.run(gen(257));
    if (name == "attn_pim/batch2") return attn_pim.run(batch({64, 300}));
    if (name == "dev2/sum128") return two_dev.run(sum(128));
    if (name == "dev2/gen257") return two_dev.run(gen(257));
    if (name == "dev2/batch4") return two_dev.run(batch({64, 64, 900, 17}));
    if (name == "cores16/sum128") return cores16.run(sum(128));
    if (name == "cores16/batch2") return cores16.run(batch({64, 300}));
    if (name == "npu_mem/gen257") return npu_mem.run(gen(257));
    if (name == "partitioned/sum128") return partitioned.run(sum(128));
    if (name == "partitioned/gen257") return partitioned.run(gen(257));
    ADD_FAILURE() << "unknown golden case " << name;
    return {};
}

// Values taken from the engine before its hot-path rewrite. Never
// re-pinned: a mismatch means a change moved a simulated number.
const GoldenCase kGolden[] = {
    {"m/sum32", 0x0b6374a75b06ce40ull, 3373885925},
    {"m/sum128", 0x6cabb770fa71f8e5ull, 3770557618},
    {"m/sum512", 0x453d3aa86d70b9f7ull, 7073381204},
    {"m/gen1", 0x4c36206a93a7ca5dull, 744974888},
    {"m/gen64", 0x6375369681106c3eull, 775510021},
    {"m/gen257", 0x83f0e71e16a57d28ull, 943564837},
    {"m/gen1024", 0xfe887858345bd167ull, 1656591181},
    {"m/batch2", 0x25eb258ee8b3e70dull, 1526995143},
    {"m/batch3", 0x826c461dab0e1a43ull, 2324714537},
    {"m/batch4", 0x72a9dc3bbd2660caull, 3026396275},
    {"m/chunk", 0xe091a7af7c0752e2ull, 3545666224},
    {"m/chunk_last", 0xa7e080dbf4a8aa32ull, 3946642162},
    {"xl/sum128", 0x0cac56aff66be65bull, 15481003786},
    {"xl/gen512", 0xd8c423145ca01cb3ull, 3910445021},
    {"xl/sum512", 0x3d7d08065d6bb555ull, 24254455243},
    {"xl/batch2", 0x42b4ed153d53e569ull, 5613614816},
    {"naive/sum128", 0x3d0dfb7ff62f23a4ull, 4571629877},
    {"naive/gen257", 0xa5950dfcb1f2c320ull, 1207036813},
    {"naive/batch2", 0x8c59ce692eb82a71ull, 2085533271},
    {"attn_pim/gen257", 0xe01bf18398edece0ull, 1160855181},
    {"attn_pim/batch2", 0x76bc6108dda45d57ull, 2139247735},
    {"dev2/sum128", 0x1c6c59b1277b6799ull, 2948818162},
    {"dev2/gen257", 0x4e7106637309e370ull, 651337381},
    {"dev2/batch4", 0x65540c3260fbe38bull, 1748192275},
    {"cores16/sum128", 0xabd9a3d1412d180cull, 3680844941},
    {"cores16/batch2", 0x579ee5d3b685d678ull, 1591782279},
    {"npu_mem/gen257", 0xc8ffa0a4738f0a6eull, 3936868245},
    {"partitioned/sum128", 0xfb7994f972c271c8ull, 6843570173},
    {"partitioned/gen257", 0x74661509061f8342ull, 1348278837},
};

TEST(EngineGolden, RunStatsMatchPinnedHashes)
{
    for (const GoldenCase &g : kGolden) {
        SCOPED_TRACE(g.name);
        RunStats s = runCase(g.name);
        std::ostringstream actual; // the row to paste, for a new case
        actual << "{\"" << g.name << "\", 0x" << std::hex
               << std::setw(16) << std::setfill('0') << hashStats(s)
               << "ull, " << std::dec << s.wallTicks << "},";
        EXPECT_EQ(s.wallTicks, g.wallTicks) << actual.str();
        EXPECT_EQ(hashStats(s), g.hash) << actual.str();
    }
}

TEST(EngineGolden, RerunIsBitIdentical)
{
    // The engine keeps no state between runs: the same program run
    // twice on one engine gives the same stats.
    Design d;
    WorkloadBuilder builder(d.sys, workloads::gpt2(d.model), d.opts);
    ExecutionEngine engine(d.sys);
    isa::Program prog = builder.buildGenerationBatch({64, 300});
    EXPECT_EQ(hashStats(engine.run(prog)), hashStats(engine.run(prog)));
}

} // namespace
