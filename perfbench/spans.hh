/**
 * @file
 * Span accounting for the benchmark's traced runs.
 *
 * A span covers one call from the benchmark (or one of its forwarding
 * wrappers) into a layer of the simulator. Spans nest: a recovery
 * tick drains flits, which fires detector hooks, so a detector span
 * can sit inside a recovery span, and every hook span sits inside a
 * Network::run span. Each layer's self time is its inclusive time
 * minus the inclusive time of the spans directly inside it; the self
 * times of the run span and of everything nested in it therefore add
 * up to the run span exactly.
 *
 * A recorder starts inactive; spans opened while it is inactive
 * record nothing, so set-up and the benchmark's own oracle calls stay
 * out of the layer totals. Single-threaded by design: traced runs step
 * one simulation on the caller thread.
 */

// wormnet-lint: allow-file(banned-api): spans time the host by design;
// the times are reported, never fed back into a simulation.

#ifndef WORMNET_PERFBENCH_SPANS_HH
#define WORMNET_PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** The layer a span belongs to. */
enum class Layer : unsigned
{
    Run,               ///< Network::run (the simulator core's span)
    DetCycleEnd,       ///< DeadlockDetector::onCycleEnd
    DetRoutingFailed,  ///< DeadlockDetector::onRoutingFailed
    DetOther,          ///< every other detector hook
    Route,             ///< RoutingFunction::route (network candidates)
    TrafficDest,       ///< TrafficPattern::destination
    TrafficLength,     ///< LengthDistribution::draw
    RecoveryDetected,  ///< RecoveryManager::onDeadlockDetected
    RecoveryTick,      ///< RecoveryManager::tick
    RecoveryOther,     ///< every other recovery call
    Count
};

struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
    /** Inclusive time of the spans directly inside this layer's. */
    std::uint64_t childNs = 0;
};

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Totals per layer plus the stack of open spans. */
class SpanRecorder
{
  public:
    void
    reset()
    {
        totals_ = {};
        stack_.clear();
    }

    void setActive(bool on) { active_ = on; }
    bool active() const { return active_; }

    const LayerTotals &
    operator[](Layer l) const
    {
        return totals_[static_cast<unsigned>(l)];
    }

    void
    open(Layer l)
    {
        stack_.push_back(Frame{l, nowNs(), 0});
    }

    void
    close()
    {
        const std::uint64_t end = nowNs();
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::uint64_t dur = end - f.start;
        LayerTotals &t = totals_[static_cast<unsigned>(f.layer)];
        ++t.calls;
        t.inclusiveNs += dur;
        t.selfNs += dur - f.childNs;
        t.childNs += f.childNs;
        if (!stack_.empty())
            stack_.back().childNs += dur;
    }

  private:
    struct Frame
    {
        Layer layer;
        std::uint64_t start;
        std::uint64_t childNs;
    };

    std::array<LayerTotals, static_cast<unsigned>(Layer::Count)>
        totals_{};
    std::vector<Frame> stack_;
    bool active_ = false;
};

/** RAII span; records only if the recorder was active at open. */
class Span
{
  public:
    Span(SpanRecorder &rec, Layer l)
        : rec_(rec.active() ? &rec : nullptr)
    {
        if (rec_)
            rec_->open(l);
    }
    ~Span()
    {
        if (rec_)
            rec_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
};

} // namespace perfbench

#endif // WORMNET_PERFBENCH_SPANS_HH
