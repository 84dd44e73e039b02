/**
 * @file
 * The benchmark driver: one workload per process, on one thread, through
 * the program's public entry points.
 *
 *   exploit-matrix  core::Coppelia::generateExploit on the 29 in-scope
 *                   OR1200 bugs of Table II (trigger, payload, replay).
 *   patch-proof     the same entry point on the patched core of each
 *                   bug-linked assertion (a04/a24 left out) and on the
 *                   reference core for the six standalone assertions.
 *   fuzz            fuzz::Fuzzer::run at a fixed execution budget on the
 *                   bug-free OR1200 and its 29 injected-bug cores.
 *
 * Set-up (design build, assertion instantiation, cold codegen into a
 * cache private to this run) is timed from process start. The timed part
 * then runs whole rounds of every operation until --seconds have passed;
 * within a round, short operations repeat back to back, as often as the
 * work of their first repeat says. Each operation is reported as its
 * fastest repeat, and every repeat must do the same work as the first,
 * counter for counter.
 * Outputs are checked on paths apart from the search: the interpreter
 * backend, the bug-free core, a fresh oracle.
 *
 * With --trace 1 the run makes one untraced and one traced round, records
 * its own spans around the calls into each layer, writes them as a
 * Chrome trace-event file, and prints per-layer metrics instead of the
 * end-to-end ones. The last line of stdout is always the JSON result.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coi/coi.hh"
#include "core/coppelia.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "exploit/replay.hh"
#include "exploit/system.hh"
#include "fuzz/coverage.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/oracle.hh"
#include "iss/memory.hh"
#include "iss/or1k_iss.hh"
#include "rtl/compile/compiled.hh"

using namespace coppelia;

namespace
{

using Clock = std::chrono::steady_clock;

/** Taken during static initialization: set-up time counts from here. */
const Clock::time_point kProcessStart = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Trigger bound and feedback budget of the Table II/VII harnesses. */
constexpr int kBound = 6;
constexpr int kFeedbackRounds = 24;
/** A search never comes near this; it only stops a hung run. */
constexpr double kSearchTimeLimit = 120.0;
/** Fuzz budget per core (stream executions, minimization included). */
constexpr int kFuzzExecs = 3072;
/** Within a round, an exploit search repeats back to back until its
 *  repeats have made this many SAT propagations (about 0.25 s of search),
 *  at most kMaxRepeats times. The count depends only on the work of the
 *  first repeat, so every run repeats the same operations as often. */
constexpr std::uint64_t kRepeatPropagations = 1000000;
constexpr int kMaxRepeats = 8;
/** Repeats of each fuzz campaign within a round. */
constexpr int kFuzzRepeats = 3;
/** Repeats of each final corpus in the per-layer throughput replays. */
constexpr int kCorpusReplays = 8;

// ---------------------------------------------------------------------
// Command line

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "coppbench: %s\n"
                 "usage: coppbench --workload exploit-matrix|patch-proof|"
                 "fuzz --seed N --seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else {
            usage("unknown option " + flag);
        }
        if (end && *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own timing around calls into each layer.

/** Records named spans while on; while off, a scope is a no-op that
 *  reads no clock, so untraced rounds time only the program. */
class Spans
{
  public:
    class Scope
    {
      public:
        Scope(Spans *spans, const char *name)
            : spans_(spans), name_(name),
              start_(spans ? Clock::now() : Clock::time_point{})
        {
        }
        ~Scope()
        {
            if (spans_)
                spans_->close(name_, start_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_;
        const char *name_;
        Clock::time_point start_;
    };

    Scope scope(const char *name) { return Scope(on_ ? this : nullptr, name); }
    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }
    void setOperation(const std::string &op) { op_ = op; }

    /** Summed seconds of every span called @p name. */
    double total(const std::string &name) const
    {
        auto it = totals_.find(name);
        return it == totals_.end() ? 0.0 : it->second;
    }

    /** Chrome trace-event JSON, one complete ("X") event per span. */
    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const Event &e = events_[i];
            char buf[96];
            std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                          e.startUs, e.durUs);
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << e.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
                << ",\"args\":{\"op\":\"" << e.op << "\"}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Event
    {
        const char *name;
        std::string op;
        double startUs;
        double durUs;
    };

    void close(const char *name, Clock::time_point start)
    {
        const auto end = Clock::now();
        const double dur = std::chrono::duration<double>(end - start).count();
        totals_[name] += dur;
        const double start_us =
            std::chrono::duration<double, std::micro>(start - kProcessStart)
                .count();
        events_.push_back({name, op_, start_us, dur * 1e6});
    }

    bool on_ = false;
    std::string op_;
    std::map<std::string, double> totals_;
    std::vector<Event> events_;
};

// ---------------------------------------------------------------------
// Work counters: two repeats of one operation must agree on all of them.

struct Work
{
    std::uint64_t queries = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t iterations = 0;
    std::uint64_t execs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t coverage = 0;

    bool operator==(const Work &) const = default;

    std::string str() const
    {
        char buf[240];
        std::snprintf(buf, sizeof buf,
                      "queries=%llu conflicts=%llu propagations=%llu "
                      "iterations=%llu execs=%llu instructions=%llu "
                      "coverage=%llu",
                      (unsigned long long)queries,
                      (unsigned long long)conflicts,
                      (unsigned long long)propagations,
                      (unsigned long long)iterations,
                      (unsigned long long)execs,
                      (unsigned long long)instructions,
                      (unsigned long long)coverage);
        return buf;
    }
};

/** Per-layer values by metric name (units come from kLayerMetrics). */
using LayerValues = std::map<std::string, double>;

/** Metrics as printed: name -> (value, unit), in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;
    void add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }
};

/** Every per-layer metric, in print order, with its unit. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"cpu.build_s", "s"},
    {"rtl.codegen_s", "s"},
    {"rtl.codegen_models", "count"},
    {"bse.iterations", "count"},
    {"bse.fallbacks", "count"},
    {"bse.patience_exhausted", "count"},
    {"bse.replay_rejects", "count"},
    {"bse.shrink_queries", "count"},
    {"bse.trigger_insns", "count"},
    {"solver.solve_s", "s"},
    {"solver.sat_conflicts", "count"},
    {"solver.sat_decisions", "count"},
    {"solver.sat_propagations", "count"},
    {"solver.preprocess_s", "s"},
    {"solver.rewrite_s", "s"},
    {"solver.blast_cache_hits", "count"},
    {"solver.queries", "count"},
    {"solver.us_per_query", "us"},
    {"solver.outside_s", "s"},
    {"sym.forks", "count"},
    {"sym.feasibility_queries", "count"},
    {"sym.leaves", "count"},
    {"coi.analyze_s", "s"},
    {"coi.symbolic_regs", "count"},
    {"exploit.validate_s", "s"},
    {"exploit.replay_s", "s"},
    {"exploit.replays", "count"},
    {"fuzz.execs", "count"},
    {"fuzz.instructions", "count"},
    {"fuzz.instr_per_s", "1/s"},
    {"fuzz.corpus", "count"},
    {"fuzz.coverage_points", "count"},
    {"fuzz.divergences", "count"},
    {"fuzz.cores_diverged", "count"},
    {"rtl.sim_instr_per_s", "1/s"},
    {"iss.instr_per_s", "1/s"},
    {"fuzz.oracle_instr_per_s", "1/s"},
    {"fuzz.coverage_instr_per_s", "1/s"},
    {"trace.overhead_s", "s"},
};

/** One workload: a fixed list of operations over designs built in
 *  setUp(). run() keeps the outputs of the latest repeat of each
 *  operation for check() and the per-layer metrics. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setUp(Spans &spans) = 0;
    virtual std::size_t size() const = 0;
    virtual std::string name(std::size_t op) const = 0;
    virtual Work run(std::size_t op, Spans &spans) = 0;
    /** Repeats of @p op per round, from the work of its first repeat. */
    virtual int repeats(const Work &first) const = 0;
    /** Check the kept outputs of @p op; an empty string means correct. */
    virtual std::string check(std::size_t op) = 0;
    /** Per-layer metrics from the kept outputs of the traced round,
     *  plus any layer measured on its own afterwards. */
    virtual void layers(LayerValues &m, Spans &spans,
                        const std::vector<double> &op_seconds) = 0;
};

/** Cold codegen for every design, each timed as an rtl.codegen span. */
void
compileAll(const std::deque<rtl::Design> &designs, Spans &spans)
{
    for (const rtl::Design &d : designs) {
        auto s = spans.scope("rtl.codegen");
        if (!rtl::compile::getOrCompile(d)) {
            std::fprintf(stderr, "coppbench: codegen failed for a design\n");
            std::exit(1);
        }
    }
}

const cpu::BugInfo *
bugNamed(const std::string &name)
{
    for (const cpu::BugInfo &b : cpu::bugRegistry()) {
        if (b.name == name)
            return &b;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Exploit workloads (exploit-matrix, patch-proof)

/** Legal-opcode preconditions of the OR1200 harnesses (§II-E1). */
bse::PreconditionFn
or1kPreconditions(const rtl::Design &design)
{
    const rtl::Design *d = &design;
    return [d](smt::TermManager &tm,
               const sym::BoundState &bs) -> std::vector<smt::TermRef> {
        std::vector<smt::TermRef> out =
            cpu::or1k::stateAssumptions(tm, *d, bs.regVars);
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                out.push_back(cpu::or1k::legalInsnConstraint(tm, var));
        }
        return out;
    };
}

class ExploitWorkload : public Workload
{
  public:
    ExploitWorkload(bool patch_proof, std::uint64_t seed)
        : patchProof_(patch_proof), seed_(seed)
    {
    }

    void setUp(Spans &spans) override
    {
        {
            auto s = spans.scope("cpu.build");
            rtl::Design &bug_free =
                designs_.emplace_back(cpu::or1k::buildOr1200());
            bugFreeAsserts_ = cpu::or1k::or1200Assertions(bug_free);
            bugFree_ = &bug_free;
        }
        if (patchProof_)
            addPatchCases(spans);
        else
            addMatrixCases(spans);
        compileAll(designs_, spans);
        out_.resize(cases_.size());
    }

    std::size_t size() const override { return cases_.size(); }
    std::string name(std::size_t op) const override
    {
        return cases_[op].name;
    }

    Work run(std::size_t op, Spans &spans) override
    {
        const Case &c = cases_[op];
        Output &o = out_[op];
        o = Output{};
        core::CoppeliaOptions opts;
        opts.engine.bound = kBound;
        opts.engine.maxFeedbackRounds = kFeedbackRounds;
        opts.engine.timeLimitSeconds = kSearchTimeLimit;
        opts.engine.preconditions = or1kPreconditions(*c.design);
        opts.engine.explorer.seed = seed_;
        opts.engine.solverThreads = 1;
        opts.simBackend = rtl::SimBackend::Compiled;
        const rtl::Design &design = *c.design;
        const props::Assertion &a = *c.assertion;
        // Traced, the driver makes the validator and final replay calls
        // that generateExploit makes when validateByReplay is on, with
        // spans around them. Untraced runs take the program's own path.
        const bool traced = spans.on();
        opts.validateByReplay = !traced;
        if (traced) {
            opts.engine.validator =
                [&](const std::vector<bse::TriggerCycle> &cycles) {
                    ++o.replays;
                    auto s = spans.scope("exploit.validate");
                    return exploit::replayTriggerCycles(
                        design, a, cycles, rtl::SimBackend::Compiled);
                };
        }
        core::Coppelia tool(design, cpu::Processor::OR1200, opts);
        {
            auto s = spans.scope("core.generateExploit");
            o.result = tool.generateExploit(a);
        }
        if (traced && o.result.exploit) {
            ++o.replays;
            auto s = spans.scope("exploit.replay");
            o.result.replay = exploit::replayExploit(
                design, a, *o.result.exploit, rtl::SimBackend::Compiled);
        }
        const StatGroup &st = o.result.stats;
        Work w;
        w.queries = st.get("solver_queries");
        w.conflicts = st.get("solver_sat_conflicts");
        w.propagations = st.get("solver_sat_propagations");
        w.iterations = static_cast<std::uint64_t>(o.result.iterations);
        return w;
    }

    int repeats(const Work &first) const override
    {
        const std::uint64_t per =
            std::max<std::uint64_t>(1, first.propagations);
        return static_cast<int>(std::min<std::uint64_t>(
            kMaxRepeats, (kRepeatPropagations + per - 1) / per));
    }

    std::string check(std::size_t op) override
    {
        const Case &c = cases_[op];
        const core::ExploitResult &r = out_[op].result;
        if (r.solverIncomplete)
            return "search was solver-incomplete";
        if (!c.expectExploit) {
            // A completed proof, not a budget stop.
            if (r.outcome != bse::Outcome::NoViolation)
                return std::string("expected no-violation, got ") +
                       bse::outcomeName(r.outcome);
            return "";
        }
        if (!r.found() || !r.exploit)
            return std::string("expected an exploit, got ") +
                   bse::outcomeName(r.outcome);
        if (r.triggerInstructions < 1 || r.triggerInstructions > kBound)
            return "trigger length " +
                   std::to_string(r.triggerInstructions) + " outside [1, " +
                   std::to_string(kBound) + "]";
        if (!r.replay.replayable())
            return "exploit does not replay on the compiled backend";
        const exploit::ReplayResult interp = exploit::replayExploit(
            *c.design, *c.assertion, *r.exploit, rtl::SimBackend::Interpret);
        if (!interp.triggerFired)
            return "exploit does not fire the assertion on the interpreter";
        if (!interp.payloadEffect)
            return "payload does not land on the interpreter";
        if (c.onBugFree) {
            const exploit::ReplayResult clean =
                exploit::replayExploit(*bugFree_, *c.onBugFree, *r.exploit,
                                       rtl::SimBackend::Interpret);
            if (clean.triggerFired)
                return "exploit also fires the assertion on the bug-free "
                       "core";
        }
        return "";
    }

    void layers(LayerValues &m, Spans &spans,
                const std::vector<double> &op_seconds) override
    {
        // coi::analyze on its own: the cone the engine restricts its
        // symbolic registers to.
        std::uint64_t symbolic_regs = 0;
        for (const Case &c : cases_) {
            spans.setOperation(c.name);
            auto s = spans.scope("coi.analyze");
            const coi::CoiResult cone =
                coi::analyze(*c.design, c.assertion->vars);
            symbolic_regs += cone.coneRegisters.size();
        }
        StatGroup sum;
        std::uint64_t iterations = 0, trigger_insns = 0, replays = 0;
        for (const Output &o : out_) {
            sum.merge(o.result.stats);
            iterations += static_cast<std::uint64_t>(o.result.iterations);
            trigger_insns +=
                static_cast<std::uint64_t>(o.result.triggerInstructions);
            replays += o.replays;
        }
        const double solve_s =
            static_cast<double>(sum.get("solver_solve_us")) / 1e6;
        double op_total = 0.0;
        for (double s : op_seconds)
            op_total += s;
        const auto count = [&](const char *key) {
            return static_cast<double>(sum.get(key));
        };
        const double queries = count("solver_queries");
        m["bse.iterations"] = static_cast<double>(iterations);
        m["bse.fallbacks"] = count("incremental_fallbacks");
        m["bse.patience_exhausted"] = count("incremental_patience_exhausted");
        m["bse.replay_rejects"] = count("replay_validation_rejects");
        m["bse.shrink_queries"] = count("shrink_queries");
        m["bse.trigger_insns"] = static_cast<double>(trigger_insns);
        m["solver.solve_s"] = solve_s;
        m["solver.sat_conflicts"] = count("solver_sat_conflicts");
        m["solver.sat_decisions"] = count("solver_sat_decisions");
        m["solver.sat_propagations"] = count("solver_sat_propagations");
        m["solver.preprocess_s"] = count("solver_preprocess_us") / 1e6;
        m["solver.rewrite_s"] = count("solver_rewrite_us") / 1e6;
        m["solver.blast_cache_hits"] = count("solver_blast_cache_hits");
        m["solver.queries"] = queries;
        m["solver.us_per_query"] = queries > 0 ? solve_s * 1e6 / queries : 0.0;
        m["solver.outside_s"] = op_total - solve_s;
        m["sym.forks"] = count("forks");
        m["sym.feasibility_queries"] = count("feasibility_queries");
        m["sym.leaves"] = count("leaves");
        m["coi.analyze_s"] = spans.total("coi.analyze");
        m["coi.symbolic_regs"] = static_cast<double>(symbolic_regs);
        m["exploit.validate_s"] = spans.total("exploit.validate");
        m["exploit.replay_s"] = spans.total("exploit.replay");
        m["exploit.replays"] = static_cast<double>(replays);
    }

  private:
    struct Case
    {
        std::string name;
        const rtl::Design *design = nullptr;
        const props::Assertion *assertion = nullptr;
        bool expectExploit = true;
        /** Matrix only: the same assertion on the bug-free core. */
        const props::Assertion *onBugFree = nullptr;
    };
    struct Output
    {
        core::ExploitResult result;
        std::uint64_t replays = 0;
    };

    /** A core plus its assertions, kept at stable addresses. */
    const std::vector<props::Assertion> &
    build(Spans &spans, const cpu::BugConfig &bugs, const rtl::Design **d)
    {
        auto s = spans.scope("cpu.build");
        rtl::Design &design =
            designs_.emplace_back(cpu::or1k::buildOr1200(bugs));
        *d = &design;
        return asserts_.emplace_back(cpu::or1k::or1200Assertions(design));
    }

    void addMatrixCases(Spans &spans)
    {
        // The Table II bugs that have an assertion (b16/b25 out).
        for (cpu::BugId id : cpu::bugsFor(cpu::Processor::OR1200, false)) {
            const std::string bug = cpu::bugName(id);
            Case c;
            c.name = bug;
            const auto &asserts =
                build(spans, cpu::BugConfig::with(id), &c.design);
            for (const props::Assertion &a : asserts) {
                if (a.bugId == bug) {
                    c.assertion = &a;
                    c.onBugFree = &props::findAssertion(bugFreeAsserts_, a.id);
                }
            }
            if (!c.assertion) {
                std::fprintf(stderr, "coppbench: no assertion for %s\n",
                             bug.c_str());
                std::exit(1);
            }
            cases_.push_back(c);
        }
    }

    /** Table VII, proof side. Assertions whose search should find an
     *  exploit: the two incompletely patched bugs and the four wrong
     *  (over-approximating) assertions. Every other case must end in a
     *  completed no-violation proof. */
    void addPatchCases(Spans &spans)
    {
        static const char *const kExploitable[] = {
            "b20", "b22", "aw1_pc_aligned", "aw2_flag_only_sf",
            "aw3_eear_exc_only", "aw4_sm_fall_rfe"};
        // Left out: the a04 proof is sound but takes 100 s or more, and
        // the a24 search stops on its budget after ~150 s, not in a proof.
        static const char *const kLeftOut[] = {"a04_wb_target",
                                               "a24_gpr0_zero"};
        const auto listed = [](const auto &list, const std::string &s) {
            return std::find(std::begin(list), std::end(list), s) !=
                   std::end(list);
        };
        for (const props::Assertion &ref : bugFreeAsserts_) {
            if (listed(kLeftOut, ref.id))
                continue;
            Case c;
            c.name = ref.id;
            if (ref.bugId.empty()) {
                c.design = bugFree_;
                c.assertion = &ref;
                c.expectExploit = listed(kExploitable, ref.id);
            } else {
                const cpu::BugInfo *bug = bugNamed(ref.bugId);
                if (!bug) {
                    std::fprintf(stderr, "coppbench: unknown bug %s\n",
                                 ref.bugId.c_str());
                    std::exit(1);
                }
                cpu::BugConfig patched;
                patched.set(bug->id, cpu::BugState::Patched);
                c.assertion = &props::findAssertion(
                    build(spans, patched, &c.design), ref.id);
                c.expectExploit = listed(kExploitable, ref.bugId);
            }
            cases_.push_back(c);
        }
    }

    bool patchProof_;
    std::uint64_t seed_;
    std::deque<rtl::Design> designs_;
    std::deque<std::vector<props::Assertion>> asserts_;
    const rtl::Design *bugFree_ = nullptr;
    std::vector<props::Assertion> bugFreeAsserts_;
    std::vector<Case> cases_;
    std::vector<Output> out_;
};

// ---------------------------------------------------------------------
// Fuzz workload

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(std::uint64_t seed) : seed_(seed) {}

    void setUp(Spans &spans) override
    {
        auto build = [&](const cpu::BugConfig &bugs, const std::string &n) {
            auto s = spans.scope("cpu.build");
            designs_.emplace_back(cpu::or1k::buildOr1200(bugs));
            names_.push_back(n);
        };
        build({}, "bug-free");
        for (cpu::BugId id : cpu::bugsFor(cpu::Processor::OR1200, false))
            build(cpu::BugConfig::with(id), cpu::bugName(id));
        compileAll(designs_, spans);
        out_.resize(designs_.size());
    }

    std::size_t size() const override { return designs_.size(); }
    std::string name(std::size_t op) const override { return names_[op]; }

    Work run(std::size_t op, Spans &spans) override
    {
        fuzz::FuzzOptions opts;
        opts.seed = coreSeed(op);
        opts.maxExecs = kFuzzExecs;
        opts.backend = rtl::SimBackend::Compiled;
        fuzz::Fuzzer fuzzer(designs_[op], cpu::Processor::OR1200, opts);
        Output &o = out_[op];
        {
            auto s = spans.scope("fuzz.run");
            o.result = fuzzer.run();
        }
        o.corpus = fuzzer.corpus();
        Work w;
        w.instructions = o.result.instructions;
        w.coverage = o.result.coveragePoints;
        w.execs = static_cast<std::uint64_t>(o.result.execs);
        return w;
    }

    int repeats(const Work &) const override { return kFuzzRepeats; }

    std::string check(std::size_t op) override
    {
        const fuzz::FuzzResult &r = out_[op].result;
        if (op == 0) // the bug-free core
            return r.divergences.empty()
                       ? ""
                       : "the bug-free core diverges on field " +
                             r.divergences.front().divergence.field;
        for (const fuzz::FuzzDivergence &d : r.divergences) {
            fuzz::DivergenceOracle fresh(designs_[op],
                                         cpu::Processor::OR1200,
                                         rtl::SimBackend::Interpret);
            const auto again = fresh.runStream(d.stream);
            if (!again || again->field != d.divergence.field)
                return "minimized stream does not diverge on field " +
                       d.divergence.field + " on a fresh oracle";
            fuzz::DivergenceOracle clean(designs_[0],
                                         cpu::Processor::OR1200,
                                         rtl::SimBackend::Interpret);
            if (const auto bad = clean.runStream(d.stream))
                return "minimized stream also diverges on the bug-free "
                       "core (" +
                       bad->field + ")";
        }
        return "";
    }

    void layers(LayerValues &m, Spans &spans,
                const std::vector<double> &) override
    {
        std::uint64_t execs = 0, instructions = 0, corpus = 0, points = 0;
        std::uint64_t divergences = 0, cores = 0;
        for (const Output &o : out_) {
            execs += static_cast<std::uint64_t>(o.result.execs);
            instructions += o.result.instructions;
            corpus += static_cast<std::uint64_t>(o.result.corpusSize);
            points += o.result.coveragePoints;
            divergences += o.result.divergences.size();
            cores += o.result.divergences.empty() ? 0 : 1;
        }
        const double run_s = spans.total("fuzz.run");
        m["fuzz.execs"] = static_cast<double>(execs);
        m["fuzz.instructions"] = static_cast<double>(instructions);
        m["fuzz.instr_per_s"] =
            run_s > 0 ? static_cast<double>(instructions) / run_s : 0.0;
        m["fuzz.corpus"] = static_cast<double>(corpus);
        m["fuzz.coverage_points"] = static_cast<double>(points);
        m["fuzz.divergences"] = static_cast<double>(divergences);
        m["fuzz.cores_diverged"] = static_cast<double>(cores);
        replayCorpora(m, spans);
    }

  private:
    /** Each core fuzzes from its own seed, derived from --seed
     *  (splitmix64), so the 30 campaigns are independent draws and
     *  their sum varies less from seed to seed than one draw does. */
    std::uint64_t coreSeed(std::size_t op) const
    {
        std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ull * (op + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    struct Output
    {
        fuzz::FuzzResult result;
        std::vector<std::vector<std::uint32_t>> corpus;
    };

    /** Replay every final corpus through one layer at a time, each
     *  under its own span: the RTL simulator alone, the ISS alone, the
     *  lockstep oracle, and the oracle with the coverage map attached.
     *  Sets the four instructions-per-second metrics. */
    void replayCorpora(LayerValues &m, Spans &spans)
    {
        std::uint64_t sim_n = 0, iss_n = 0, oracle_n = 0, cov_n = 0;
        for (std::size_t op = 0; op < designs_.size(); ++op) {
            const rtl::Design &design = designs_[op];
            const auto &corpus = out_[op].corpus;
            spans.setOperation(names_[op]);

            exploit::CoreSystem sys(design, rtl::SimBackend::Compiled);
            iss::SparseMemory mem;
            iss::Or1kIss iss(mem);
            fuzz::DivergenceOracle oracle(design, cpu::Processor::OR1200,
                                          rtl::SimBackend::Compiled);
            fuzz::CoverageMap cov(design);
            for (int k = 0; k < kCorpusReplays; ++k) {
                {
                    auto s = spans.scope("rtl.sim_replay");
                    for (const auto &stream : corpus) {
                        sys.reset();
                        sys.dmem().clear();
                        for (std::uint32_t insn : stream)
                            sys.stepWithInsn(insn);
                        sim_n += stream.size();
                    }
                }
                {
                    auto s = spans.scope("iss.replay");
                    for (const auto &stream : corpus) {
                        iss.reset();
                        mem.clear();
                        for (std::uint32_t insn : stream)
                            iss.execute(insn);
                        iss_n += stream.size();
                    }
                }
                {
                    auto s = spans.scope("fuzz.oracle_replay");
                    for (const auto &stream : corpus) {
                        oracle.runStream(stream);
                        oracle_n +=
                            static_cast<std::uint64_t>(oracle.cyclesRun());
                    }
                }
                oracle.system().sim().setObserver(&cov);
                {
                    auto s = spans.scope("fuzz.coverage_replay");
                    for (const auto &stream : corpus) {
                        oracle.reset();
                        cov.syncState(oracle.system().sim());
                        for (std::uint32_t insn : stream) {
                            ++cov_n;
                            if (oracle.stepCompare(insn))
                                break;
                        }
                    }
                }
                oracle.system().sim().setObserver(nullptr);
            }
        }
        const auto rate = [&](std::uint64_t n, const char *span) {
            const double s = spans.total(span);
            return s > 0 ? static_cast<double>(n) / s : 0.0;
        };
        m["rtl.sim_instr_per_s"] = rate(sim_n, "rtl.sim_replay");
        m["iss.instr_per_s"] = rate(iss_n, "iss.replay");
        m["fuzz.oracle_instr_per_s"] = rate(oracle_n, "fuzz.oracle_replay");
        m["fuzz.coverage_instr_per_s"] =
            rate(cov_n, "fuzz.coverage_replay");
    }

    std::uint64_t seed_;
    std::deque<rtl::Design> designs_;
    std::vector<std::string> names_;
    std::vector<Output> out_;
};

// ---------------------------------------------------------------------
// Harness

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process image: VmHWM, in KiB. Not
 *  getrusage's ru_maxrss, which keeps the peak of the image that exec'd
 *  this one (the Python launcher's footprint, for a small workload). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    std::fprintf(stderr, "coppbench: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &m)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.items.size(); ++i) {
        const auto &[name, vu] = m.items[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + vu.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/** A codegen cache directory private to this run, removed at exit. */
class PrivateCache
{
  public:
    explicit PrivateCache(const std::string &parent)
    {
        std::filesystem::create_directories(parent);
        std::string tmpl = parent + "/codegen-XXXXXX";
        if (!mkdtemp(tmpl.data())) {
            std::perror("coppbench: mkdtemp");
            std::exit(1);
        }
        path_ = std::filesystem::absolute(tmpl).string();
        setenv("COPPELIA_CODEGEN_CACHE", path_.c_str(), 1);
        // The compiler's own temporary files stay in the run's directory.
        setenv("TMPDIR", path_.c_str(), 1);
    }
    ~PrivateCache()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    PrivateCache(const PrivateCache &) = delete;
    PrivateCache &operator=(const PrivateCache &) = delete;

  private:
    std::string path_;
};

int
runBench(const Args &args)
{
    std::unique_ptr<Workload> wl;
    if (args.workload == "exploit-matrix")
        wl = std::make_unique<ExploitWorkload>(false, args.seed);
    else if (args.workload == "patch-proof")
        wl = std::make_unique<ExploitWorkload>(true, args.seed);
    else if (args.workload == "fuzz")
        wl = std::make_unique<FuzzWorkload>(args.seed);
    else
        usage("unknown workload " + args.workload);

    const std::string out_dir = ".bench_out";
    PrivateCache cache(out_dir);
    Spans spans;
    spans.setOn(args.trace);
    spans.setOperation("setup");
    // A silent fallback to the interpreter would change what is measured.
    if (!rtl::compile::backendAvailable()) {
        std::fprintf(stderr,
                     "coppbench: the compiled simulation backend is "
                     "unavailable\n");
        return 1;
    }
    const std::uint64_t compiles0 =
        rtl::compile::codegenStats().compilerInvocations;
    wl->setUp(spans);
    const double setup_s = since(kProcessStart);
    const std::uint64_t models =
        rtl::compile::codegenStats().compilerInvocations - compiles0;

    const std::size_t n = wl->size();
    std::vector<double> best(n, std::numeric_limits<double>::infinity());
    std::vector<double> traced_s(n, 0.0);
    std::vector<Work> first(n);
    std::vector<int> repeats(n, 1);
    std::vector<std::string> failures(n);
    bool repeats_agree = true;

    const auto t_measure = Clock::now();
    for (int round = 0;; ++round) {
        const bool traced_round = args.trace && round == 1;
        spans.setOn(traced_round);
        double round_s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            spans.setOperation(wl->name(i));
            // A traced round runs each operation once.
            double spent = 0.0;
            for (int rep = 0; rep < repeats[i]; ++rep) {
                const auto t = Clock::now();
                Work w;
                {
                    auto s = spans.scope("bench.op");
                    w = wl->run(i, spans);
                }
                const double dt = since(t);
                spent += dt;
                std::fprintf(stderr, "  r%d %-22s %9.4f s  %s\n",
                             round + 1, wl->name(i).c_str(), dt,
                             w.str().c_str());
                if (round == 0 && rep == 0) {
                    first[i] = w;
                    repeats[i] = wl->repeats(w);
                    failures[i] = wl->check(i);
                } else if (!(w == first[i])) {
                    repeats_agree = false;
                    std::fprintf(stderr,
                                 "coppbench: %s did different work on "
                                 "round %d:\n  first: %s\n  now:   %s\n",
                                 wl->name(i).c_str(), round + 1,
                                 first[i].str().c_str(), w.str().c_str());
                }
                if (traced_round) {
                    traced_s[i] = dt;
                    break;
                }
                best[i] = std::min(best[i], dt);
            }
            round_s += spent;
        }
        std::fprintf(stderr, "coppbench: round %d took %.3f s%s\n",
                     round + 1, round_s, traced_round ? " (traced)" : "");
        const bool done = args.trace ? round >= 1
                                     : since(t_measure) >= args.seconds;
        if (done)
            break;
    }

    std::size_t failed = 0;
    for (const std::string &f : failures)
        failed += f.empty() ? 0 : 1;
    const bool correct = failed == 0 && repeats_agree;

    Metrics m;
    if (!args.trace) {
        double run_s = 0.0;
        for (double b : best)
            run_s += b;
        m.add("run_s", run_s, "s");
        m.add("op_p50_s", medianOf(best), "s");
        m.add("setup_s", setup_s, "s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        spans.setOn(true);
        LayerValues layer;
        layer["cpu.build_s"] = spans.total("cpu.build");
        layer["rtl.codegen_s"] = spans.total("rtl.codegen");
        layer["rtl.codegen_models"] = static_cast<double>(models);
        wl->layers(layer, spans, traced_s);
        double overhead = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            overhead += traced_s[i] - best[i];
        layer["trace.overhead_s"] = overhead;
        // Every workload prints every per-layer metric; layers a
        // workload does not exercise read 0.
        for (const auto &[name, unit] : kLayerMetrics)
            m.add(name, layer[name], unit);
        const std::string path = out_dir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        if (!spans.write(path))
            std::fprintf(stderr, "coppbench: cannot write %s\n",
                         path.c_str());
        else
            std::fprintf(stderr, "coppbench: trace written to %s\n",
                         path.c_str());
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!failures[i].empty())
            std::fprintf(stderr, "coppbench: %s failed: %s\n",
                         wl->name(i).c_str(), failures[i].c_str());
    }
    printResult(correct, n, failed, m);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runBench(parseArgs(argc, argv));
}
