/**
 * @file
 * Algorithm 1/2 tests: component splicing, granularity-targeted lowering
 * against per-domain Ot sets, compile failure on unsupported ops,
 * translation to fragments, boundary load/store insertion, partitioning,
 * multi-accelerator domain splitting, the registry's precomputed Om and
 * cache-key fragment, and the program text rendered once per compile.
 */
#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "lower/compile.h"
#include "lower/compile_cache.h"
#include "lower/lower.h"
#include "srdfg/builder.h"
#include "srdfg/traversal.h"
#include "targets/common/backend.h"
#include "targets/common/op_sets.h"
#include "workloads/programs.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using lang::Domain;
using lower::AcceleratorRegistry;
using lower::AcceleratorSpec;

const char *const kTwoLevel = R"(
scale(input float x[n], param float f, output float y[n]) {
    index i[0:n-1];
    y[i] = x[i]*f;
}
main(input float a[4], param float f, output float b[4]) {
    DSP: scale(a, f, b);
}
)";

TEST(Splice, InlinesSubgraphAndPreservesSemantics)
{
    auto g = ir::compileToSrdfg(kTwoLevel);
    ASSERT_EQ(ir::recursionDepth(*g), 2);
    ir::NodeId comp = -1;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component)
            comp = node.id;
    }
    ASSERT_GE(comp, 0);
    lower::spliceComponent(*g, comp);
    g->validate();
    EXPECT_EQ(ir::recursionDepth(*g), 1);

    auto out = interp::evaluate(*g, {{"a", Tensor::vec({1, 2, 3, 4})},
                                     {"f", Tensor::scalar(2.0)}});
    EXPECT_EQ(out.at("b").at(int64_t{3}), 8.0);
}

TEST(Splice, PassThroughStateAliases)
{
    auto g = ir::compileToSrdfg(R"(
peek(state float s[2], output float y) {
    y = s[0];
}
main(state float s[2], output float y) {
    RBT: peek(s, y);
}
)");
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component) {
            lower::spliceComponent(*g, node.id);
            break;
        }
    }
    g->validate();
    auto out = interp::evaluate(*g, {{"s", Tensor::vec({42, 0})}});
    EXPECT_EQ(out.at("y").scalarValue(), 42.0);
    EXPECT_EQ(out.at("s").at(int64_t{0}), 42.0); // state passes through
}

TEST(Lower, SplicesOnlyUnsupportedComponents)
{
    // A target accepting `scale` whole keeps it; one accepting only ALU
    // ops splices it.
    auto keep = ir::compileToSrdfg(kTwoLevel);
    lower::SupportedOps om;
    om[Domain::DSP] = {ir::Op::intern("scale"), ir::OpCode::Const};
    lower::lowerGraph(*keep, om);
    EXPECT_EQ(ir::recursionDepth(*keep), 2);

    auto splice = ir::compileToSrdfg(kTwoLevel);
    om[Domain::DSP] = target::scalarAluOps();
    lower::lowerGraph(*splice, om);
    EXPECT_EQ(ir::recursionDepth(*splice), 1);
}

TEST(Lower, FailsOnUnsupportedOp)
{
    auto g = ir::compileToSrdfg(
        "main(input float x[2], output float y[2]) {"
        " index i[0:1]; y[i] = sigmoid(x[i]); }");
    lower::SupportedOps om;
    om[Domain::None] = target::scalarAluOps(); // no sigmoid
    EXPECT_THROW(lower::lowerGraph(*g, om), UserError);
}

TEST(Lower, CustomReductionAdmittedByWildcard)
{
    auto g = ir::compileToSrdfg(
        "reduction mymin(a, b) = a < b ? a : b;"
        "main(input float x[4], output float m) {"
        " index i[0:3]; m = mymin[i](x[i]); }");
    lower::SupportedOps om;
    om[Domain::None] = target::scalarAluOps();
    EXPECT_THROW(lower::lowerGraph(*g, om), UserError);

    auto g2 = ir::compileToSrdfg(
        "reduction mymin(a, b) = a < b ? a : b;"
        "main(input float x[4], output float m) {"
        " index i[0:3]; m = mymin[i](x[i]); }");
    om[Domain::None].insert("@custom_reduce");
    EXPECT_NO_THROW(lower::lowerGraph(*g2, om));
}

TEST(Lower, DnnStaysAtLayerGranularityForVta)
{
    const auto registry = target::standardRegistry();
    auto g = ir::compileToSrdfg(wl::mobilenetProgram());
    lower::lowerGraph(*g, registry.supportedOpsByDomain(), Domain::DL);
    // VTA consumes whole layers: conv components survive lowering.
    int64_t convs = 0;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component)
            convs += node.op == ir::Op::intern("conv2d") ||
                     node.op == ir::Op::intern("conv2d_dw");
    }
    EXPECT_GT(convs, 10);
}

TEST(Lower, SameProgramFullyFlattensForTabla)
{
    const auto registry = target::standardRegistry();
    auto g = ir::compileToSrdfg(wl::lrmfProgram(6, 8, 3));
    lower::lowerGraph(*g, registry.supportedOpsByDomain(), Domain::DA);
    EXPECT_EQ(ir::recursionDepth(*g), 1);
}

// --- Algorithm 2 -------------------------------------------------------------

TEST(Compile, FragmentsCarryOperandsAndStats)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float A[4][3], input float x[3], output float y[4]) {"
        " index i[0:2], j[0:3]; y[j] = sum[i](A[j][i]*x[i]); }",
        {}, registry, Domain::DA);
    ASSERT_EQ(compiled.partitions.size(), 1u);
    const auto &part = compiled.partitions.front();
    EXPECT_EQ(part.accel, "TABLA");
    EXPECT_EQ(part.flops(), 20); // 12 multiplies + 4 x (3-1) adds

    bool has_reduce = false;
    for (const auto &frag : part.fragments) {
        if (frag.opcode == "sum") {
            has_reduce = true;
            EXPECT_EQ(frag.attrs.at("reduce_extent"), 3);
            EXPECT_EQ(frag.flops, 8); // 4 outputs x (3-1)
        }
    }
    EXPECT_TRUE(has_reduce);
}

TEST(Compile, LoadsAndStoresAtBoundary)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float x[8], param float p[8], state float s[8]) {"
        " index i[0:7]; s[i] = s[i] + x[i]*p[i]; }",
        {}, registry, Domain::DA);
    const auto &part = compiled.partitions.front();
    const auto dma = target::dmaBreakdown(part);
    // x streams per run (fp32: 8*4); p and s place once (8*4 each + the
    // state store-back also classified as state).
    EXPECT_EQ(dma.perRunBytes, 32);
    EXPECT_GT(dma.oneTimeBytes, 0);
}

TEST(Compile, CrossDomainTransfersInserted)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(R"(
stage1(input float x[8], output float y[8]) {
    index i[0:7];
    y[i] = x[i]*2;
}
stage2(input float y[8], output float z) {
    index i[0:7];
    z = sum[i](y[i]);
}
main(input float x[8], output float z) {
    float y[8];
    DSP: stage1(x, y);
    DA: stage2(y, z);
}
)",
                                               {}, registry, Domain::None);
    // Two partitions with a dependency and a stored/loaded tensor y.
    ASSERT_EQ(compiled.partitions.size(), 2u);
    const auto &second = compiled.partitions[1];
    ASSERT_EQ(second.deps.size(), 1u);
    EXPECT_EQ(second.deps[0], 0);
    bool y_stored = false;
    for (const auto &s : compiled.partitions[0].stores)
        y_stored |= s.name == "y";
    EXPECT_TRUE(y_stored);
    EXPECT_GT(compiled.transferBytes(), 0);
}

TEST(Compile, AffinityKeepsDomainsContiguous)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(wl::brainStimulProgram(), {},
                                               registry, Domain::None);
    // The three-domain app may split RoboX around the TABLA dependency but
    // must not shatter into per-node partitions.
    EXPECT_LE(compiled.partitions.size(), 5u);
    EXPECT_GE(compiled.partitions.size(), 3u);
}

TEST(Compile, PreferredComponentSplitsDataAnalytics)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(wl::optionPricingProgram(),
                                               {}, registry, Domain::None);
    std::set<std::string> accels;
    for (const auto &part : compiled.partitions)
        accels.insert(part.accel);
    EXPECT_TRUE(accels.count("TABLA"));
    EXPECT_TRUE(accels.count("HyperStreams"));
    // Black-Scholes arrives whole at HyperStreams.
    bool pipeline_frag = false;
    for (const auto &part : compiled.partitions) {
        for (const auto &frag : part.fragments)
            pipeline_frag |= frag.opcode == "pipeline/black_scholes";
    }
    EXPECT_TRUE(pipeline_frag);
}

TEST(Compile, NoRegisteredDomainIsUserError)
{
    AcceleratorRegistry empty;
    auto g = ir::compileToSrdfg(
        "main(input float x, output float y) { y = x; }");
    EXPECT_THROW(lower::compileProgram(*g, empty, Domain::DA), UserError);
}

TEST(Compile, ProgramRenderingIsStable)
{
    const auto registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float x[4], output float y[4]) {"
        " index i[0:3]; y[i] = x[i]+1; }",
        {}, registry, Domain::DSP);
    const auto text = compiled.str();
    EXPECT_NE(text.find("DECO"), std::string::npos);
    EXPECT_NE(text.find("tload"), std::string::npos);
    EXPECT_NE(text.find("tstore"), std::string::npos);
}

TEST(Compile, RenderingIsMadeOnceAndMatchesAFreshRender)
{
    const auto registry = target::standardRegistry();
    auto check = [&](const std::string &source,
                     const ir::BuildOptions &opts, Domain domain) {
        const auto compiled =
            wl::compileBenchmark(source, opts, registry, domain);
        EXPECT_EQ(compiled.str(), compiled.render());
        const lower::CompiledProgram copy = compiled;
        EXPECT_EQ(copy.str(), compiled.render());
    };
    for (const auto &bench : wl::tableIII())
        check(bench.source, bench.buildOpts, bench.domain);
    for (const auto &app : wl::tableIV())
        check(app.source, app.buildOpts, Domain::None);
    EXPECT_EQ(lower::CompiledProgram{}.str(),
              "schedule: 0 partitions, 0 boundary bytes\n");
}

// --- Registry and cache key --------------------------------------------------

/** The registry field of a cache key as compileCacheKey rendered it on
 *  every call before add() precomputed it: the oracle for its bytes. */
std::string
registryFieldPerCall(const AcceleratorRegistry &registry)
{
    std::string key;
    for (const auto &spec : registry.specs()) {
        key += spec.name;
        key += '@';
        key += lang::toString(spec.domain);
        key += '[';
        for (const auto &op : spec.supportedOps.sortedNames()) {
            key += op;
            key += ',';
        }
        key += "][";
        for (const auto &comp : spec.preferredComponents) {
            key += comp.str();
            key += ',';
        }
        key += "];";
    }
    return key;
}

TEST(CompileCacheKey, BytesMatchThePerCallRendering)
{
    const auto registry = target::standardRegistry();
    for (const auto &bench : wl::tableIII()) {
        std::string expected = "src\x1f" + bench.source + "\x1f""entry\x1f" +
                               bench.buildOpts.entry + "\x1f""params\x1f";
        for (const auto &[name, value] : bench.buildOpts.paramConsts)
            expected += name + "=" + std::to_string(value) + ";";
        expected += "\x1f""domain\x1f" + lang::toString(bench.domain) +
                    "\x1f""registry\x1f" + registryFieldPerCall(registry);
        EXPECT_EQ(lower::compileCacheKey(bench.source, bench.buildOpts,
                                         bench.domain, registry),
                  expected)
            << bench.id;
        EXPECT_EQ(lower::compileCacheKey(bench.source, bench.buildOpts,
                                         bench.domain, registry,
                                         "optimize=1"),
                  expected + "\x1f""salt\x1f""optimize=1")
            << bench.id;
    }
}

TEST(Registry, CopiedAndRebuiltRegistriesAgreeOnOmAndKey)
{
    const AcceleratorRegistry &standard = target::standardRegistry();
    EXPECT_EQ(&standard, &target::standardRegistry()); // built once

    // Om recomputed here as the union of supported ops per domain.
    std::map<Domain, ir::OpSet> om;
    for (const auto &spec : standard.specs())
        om[spec.domain].merge(spec.supportedOps);

    const AcceleratorRegistry copy = standard;
    AcceleratorRegistry rebuilt;
    for (const auto &spec : standard.specs())
        rebuilt.add(spec);
    const AcceleratorRegistry *const registries[] = {&standard, &copy,
                                                     &rebuilt};
    for (const AcceleratorRegistry *r : registries) {
        EXPECT_EQ(r->cacheKeyFragment(), registryFieldPerCall(standard));
        const auto &got = r->supportedOpsByDomain();
        ASSERT_EQ(got.size(), om.size());
        for (const auto &[domain, ops] : om) {
            ASSERT_EQ(got.count(domain), 1u);
            EXPECT_EQ(got.at(domain).sortedNames(), ops.sortedNames());
        }
    }

    // A registry grown by add() extends both in step.
    AcceleratorRegistry grown;
    AcceleratorSpec extra;
    extra.name = "Extra";
    extra.domain = Domain::DSP;
    extra.supportedOps.insert("@extra_op");
    extra.preferredComponents.insert(ir::Op::intern("@extra_op"));
    grown.add(extra);
    EXPECT_EQ(grown.cacheKeyFragment(), registryFieldPerCall(grown));
    EXPECT_TRUE(grown.supportedOpsByDomain().at(Domain::DSP).contains(
        ir::Op::intern("@extra_op")));
}

} // namespace
} // namespace polymath
