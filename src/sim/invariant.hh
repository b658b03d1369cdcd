/**
 * @file
 * Machine-checked simulator invariants.
 *
 * Two layers share one runtime gate (`checksEnabled()`):
 *
 * - SIM_CHECK / SIM_CHECK_MSG: inline hot-path assertions that panic
 *   when a condition fails. The condition is only evaluated while
 *   checks are enabled, so Release builds pay a single predictable
 *   branch per check. Debug builds and `-DASTRIFLASH_CHECKS=ON`
 *   Release builds enable the gate by default; tests can flip it at
 *   runtime with setChecksEnabled().
 *
 * - InvariantRegistry: whole-component audits. Every stateful
 *   component implements `checkInvariants(InvariantChecker &)` and is
 *   registered under its instance name; checkAll() sweeps the tree at
 *   configurable tick intervals and at quiesce, recording every
 *   violated condition (component, expression, file:line, tick) so a
 *   torture run can report all failures instead of dying on the first.
 *   With fail-fast set (the default inside System), the first sweep
 *   that finds a violation panics with the full report.
 */

#ifndef ASTRIFLASH_SIM_INVARIANT_HH
#define ASTRIFLASH_SIM_INVARIANT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"
#include "ticks.hh"

/**
 * Compile-time default for the runtime gate: on in Debug builds and in
 * Release builds configured with -DASTRIFLASH_CHECKS=ON.
 */
#if !defined(NDEBUG) || defined(ASTRIFLASH_CHECKS)
#define ASTRIFLASH_CHECKS_ENABLED 1
#else
#define ASTRIFLASH_CHECKS_ENABLED 0
#endif

namespace astriflash::sim {

namespace detail {

/**
 * Deliberately NOT constexpr: reaching this call inside a constant
 * expression makes the whole evaluation ill-formed, so a SIM_CHECK_CE
 * that fails at compile time is a compile error with this function's
 * name in the diagnostic. At runtime it panics like SIM_CHECK.
 */
[[noreturn]] void constexprCheckFailed(const char *expr,
                                       const char *file, int line);

} // namespace detail

/** True while simulator self-checks are armed. */
bool checksEnabled();

/** Arm or disarm simulator self-checks (tests, torture harnesses). */
void setChecksEnabled(bool on);

/** One violated invariant, with enough context to debug it. */
struct InvariantViolation {
    std::string component; ///< Registered instance name.
    std::string detail;    ///< Failed expression or message.
    std::string file;
    int line = 0;
    Ticks tick = 0; ///< Simulated time of the sweep.
};

/**
 * Collector handed to checkInvariants() implementations.
 *
 * Records failures instead of aborting so one sweep reports every
 * broken invariant; the registry decides whether to panic afterwards.
 */
class InvariantChecker
{
  public:
    /** Evaluate one invariant. @return @p ok, for chaining. */
    bool
    check(bool ok, const char *file, int line, const char *expr)
    {
        ++evaluated;
        if (!ok)
            record(file, line, expr);
        return ok;
    }

    /** Record a failure with a pre-formatted explanation. */
    bool
    fail(const char *file, int line, std::string msg)
    {
        ++evaluated;
        record(file, line, std::move(msg));
        return false;
    }

    /** Count a condition that held (SIM_INVARIANT_MSG success path). */
    bool
    pass()
    {
        ++evaluated;
        return true;
    }

    /** Component name the current sweep is inside. */
    const std::string &component() const { return componentName; }

    /** Simulated time of the current sweep. */
    Ticks tick() const { return now; }

    /** Conditions evaluated so far (across components). */
    std::uint64_t conditionsEvaluated() const { return evaluated; }

    /** Failures recorded so far (across components). */
    std::uint64_t failures() const
    {
        return static_cast<std::uint64_t>(out.size());
    }

    const std::vector<InvariantViolation> &violations() const
    {
        return out;
    }

  private:
    friend class InvariantRegistry;

    void
    enterComponent(std::string name, Ticks when)
    {
        componentName = std::move(name);
        now = when;
    }

    void
    record(const char *file, int line, std::string detail)
    {
        out.push_back(InvariantViolation{componentName,
                                         std::move(detail), file, line,
                                         now});
    }

    std::string componentName;
    Ticks now = 0;
    std::uint64_t evaluated = 0;
    std::vector<InvariantViolation> out;
};

/**
 * Named collection of component invariant hooks.
 *
 * Owners register a callback per component ("dcache.bc.msr" ->
 * lambda invoking that table's checkInvariants); checkAll() runs the
 * whole set and aggregates the results across sweeps.
 */
class InvariantRegistry
{
  public:
    using CheckFn = std::function<void(InvariantChecker &)>;

    InvariantRegistry() = default;
    InvariantRegistry(const InvariantRegistry &) = delete;
    InvariantRegistry &operator=(const InvariantRegistry &) = delete;

    /** Register @p component's invariant hook. */
    void
    add(std::string component, CheckFn fn)
    {
        entries.push_back(Entry{std::move(component), std::move(fn)});
    }

    /**
     * Panic at the end of any sweep that found violations (default).
     * Torture harnesses disable this to collect a full report.
     */
    void setFailFast(bool on) { failFast = on; }

    /**
     * Sweep every registered component at simulated time @p now.
     * @return violations found by this sweep.
     */
    std::uint64_t checkAll(Ticks now);

    /** Registered components. */
    std::size_t size() const { return entries.size(); }

    /** True if a hook is registered under @p component. */
    bool
    contains(const std::string &component) const
    {
        for (const Entry &e : entries) {
            if (e.component == component)
                return true;
        }
        return false;
    }

    /** Completed sweeps. */
    std::uint64_t sweeps() const { return sweepCount; }

    /** Individual conditions evaluated across all sweeps. */
    std::uint64_t conditionsEvaluated() const { return evaluated; }

    /** Violations found across all sweeps. */
    std::uint64_t violationCount() const { return violationTotal; }

    /** Stored violations (capped at kMaxStored; the count is exact). */
    const std::vector<InvariantViolation> &violations() const
    {
        return stored;
    }

    /** Human-readable multi-line report of the stored violations. */
    std::string report() const;

  private:
    struct Entry {
        std::string component;
        CheckFn fn;
    };

    /** Keep the report bounded even if a bug fires every sweep. */
    static constexpr std::size_t kMaxStored = 64;

    std::vector<Entry> entries;
    std::vector<InvariantViolation> stored;
    std::uint64_t sweepCount = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t violationTotal = 0;
    bool failFast = true;
};

} // namespace astriflash::sim

/**
 * Hot-path self-check: panics when @p cond fails and checks are armed.
 * Unlike a bare assert(), the gate is a runtime switch, so Release
 * builds with -DASTRIFLASH_CHECKS=ON (or setChecksEnabled(true)) do
 * not silently skip it.
 */
#define SIM_CHECK(cond)                                                       \
    do {                                                                      \
        if (::astriflash::sim::checksEnabled() && !(cond)) {                  \
            ASTRI_PANIC("SIM_CHECK failed: %s", #cond);                       \
        }                                                                     \
    } while (0)

/** SIM_CHECK with a formatted explanation. */
#define SIM_CHECK_MSG(cond, ...)                                              \
    do {                                                                      \
        if (::astriflash::sim::checksEnabled() && !(cond)) {                  \
            ASTRI_PANIC(__VA_ARGS__);                                         \
        }                                                                     \
    } while (0)

/**
 * SIM_CHECK usable inside constexpr functions. In a constant
 * evaluation a failing condition is a hard compile error (the branch
 * calls a non-constexpr function); at runtime it behaves exactly like
 * SIM_CHECK — gated, panicking with the failed expression.
 */
#define SIM_CHECK_CE(cond)                                                    \
    do {                                                                      \
        if (std::is_constant_evaluated()) {                                   \
            if (!(cond)) {                                                    \
                ::astriflash::sim::detail::constexprCheckFailed(              \
                    #cond, __FILE__, __LINE__);                               \
            }                                                                 \
        } else if (::astriflash::sim::checksEnabled() && !(cond)) {           \
            ::astriflash::sim::detail::constexprCheckFailed(                  \
                #cond, __FILE__, __LINE__);                                   \
        }                                                                     \
    } while (0)

/**
 * Record an invariant into the active checker inside a
 * checkInvariants() implementation. Evaluates to the condition.
 */
#define SIM_INVARIANT(chk, cond)                                              \
    (chk).check((cond), __FILE__, __LINE__, #cond)

/** SIM_INVARIANT with a formatted explanation on failure. */
#define SIM_INVARIANT_MSG(chk, cond, ...)                                     \
    ((cond) ? (chk).pass()                                                    \
            : (chk).fail(__FILE__, __LINE__,                                  \
                         ::astriflash::sim::detail::format(__VA_ARGS__)))

#endif // ASTRIFLASH_SIM_INVARIANT_HH
