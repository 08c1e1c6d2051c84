/**
 * @file
 * Virtual-channel state: flit FIFOs, input-side VC records and
 * output-side VC allocation/credit records.
 *
 * Since the struct-of-arrays layout change, the flit storage of every
 * network FIFO lives in one contiguous slab owned by the network's
 * VcStore (src/router/vc_state.hh); a FlitFifo is then a bound view
 * into its fixed slab slice. A FlitFifo constructed standalone with a
 * capacity (unit tests, tools) owns a private buffer instead — the
 * ring-buffer semantics are identical either way. Indices wrap with a
 * power-of-two mask; the *logical* capacity may still be any value
 * >= 1 (the physical slice is rounded up to the next power of two).
 */

#ifndef WORMNET_ROUTER_CHANNEL_HH
#define WORMNET_ROUTER_CHANNEL_HH

#include <bit>
#include <cstdint>
#include <memory>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "router/flit.hh"

namespace wormnet
{

/** Fixed-capacity ring buffer of flits (pow2-masked indexing). */
class FlitFifo
{
  public:
    /** Physical slot count backing a logical capacity. */
    static std::uint32_t
    slotsFor(std::size_t capacity)
    {
        return std::bit_ceil(static_cast<std::uint32_t>(capacity));
    }

    /** Unbound view: storage is attached later via bind(). */
    FlitFifo() = default;

    /** Standalone FIFO owning its buffer. */
    explicit FlitFifo(std::size_t capacity)
    {
        WORMNET_ASSERT(capacity >= 1);
        owned_ = std::make_unique<Flit[]>(slotsFor(capacity));
        bind(owned_.get(), capacity);
    }

    /** Point this FIFO at @p slotsFor(capacity) slots at @p buf. */
    void
    bind(Flit *buf, std::size_t capacity)
    {
        WORMNET_ASSERT(capacity >= 1);
        buf_ = buf;
        cap_ = static_cast<std::uint32_t>(capacity);
        mask_ = slotsFor(capacity) - 1;
        head_ = 0;
        size_ = 0;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }

    void
    push(const Flit &flit)
    {
        WORMNET_ASSERT(!full());
        buf_[(head_ + size_) & mask_] = flit;
        ++size_;
    }

    const Flit &
    front() const
    {
        WORMNET_ASSERT(!empty());
        return buf_[head_];
    }

    Flit
    pop()
    {
        WORMNET_ASSERT(!empty());
        Flit f = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return f;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /**
     * Checkpoint support: flits are written in pop order, so a
     * restored FIFO is normalised to head_ == 0 with identical
     * logical contents. Capacity is config-fixed and not written.
     */
    template <typename S>
    void
    saveState(S &s) const
    {
        s.u32(size_);
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Flit &f = buf_[(head_ + i) & mask_];
            s.u32(f.msg);
            s.u8(static_cast<std::uint8_t>(f.type));
            s.u64(f.readyAt);
        }
    }

    template <typename D>
    void
    loadState(D &d)
    {
        clear();
        const std::uint32_t n = d.u32();
        WORMNET_ASSERT(n <= cap_);
        for (std::uint32_t i = 0; i < n; ++i) {
            Flit f;
            f.msg = d.u32();
            f.type = static_cast<FlitType>(d.u8());
            f.readyAt = d.u64();
            push(f);
        }
    }

  private:
    Flit *buf_ = nullptr;
    std::uint32_t cap_ = 0;  ///< logical capacity
    std::uint32_t mask_ = 0; ///< physical-slot index mask (pow2 - 1)
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::unique_ptr<Flit[]> owned_; ///< standalone mode only
};

/**
 * Input-side virtual channel: a buffer plus the worm currently using
 * it and its routing decision.
 */
struct InputVc
{
    /** Unbound record for slab-backed storage (VcStore binds the
     *  fifo). */
    InputVc() = default;

    /** Standalone record owning its flit buffer (unit tests). */
    explicit InputVc(std::size_t buf_depth) : fifo(buf_depth) {}

    FlitFifo fifo;

    /** Worm occupying this VC (set at head enqueue, cleared at tail
     *  dequeue); kInvalidMsg when free. */
    MsgId msg = kInvalidMsg;

    /** Destination of the occupying worm, cached from the message at
     *  head enqueue so the routing phase never touches the message
     *  store. Derived state: rebuilt on checkpoint load. */
    NodeId dst = kInvalidNode;

    /** @name Routing decision for the occupying worm's head. */
    /// @{
    bool routed = false;
    PortId outPort = kInvalidPort;
    VcId outVc = kInvalidVc;
    Cycle allocCycle = kNever; ///< when the output VC was granted
    /// @}

    /** @name Blocked-header bookkeeping (detection support). */
    /// @{
    /** The current head already had >= 1 failed routing attempt. */
    bool attempted = false;
    /** Feasible output ports observed at the last failed attempt. */
    PortMask lastFeasible = 0;
    /** Cycle of the first failed attempt for the current head. */
    Cycle headBlockedSince = kNever;
    /// @}

    /** The occupying message is draining into the recovery buffer. */
    bool recovering = false;

    /** Injection VCs only: the occupying message has pushed all of
     *  its flits (flitsInjected == length). Lets the injection scan
     *  skip the message-store load for fully injected worms. Derived
     *  state: rebuilt on checkpoint load. */
    bool injDone = false;

    bool free() const { return msg == kInvalidMsg; }

    /** Reset per-worm state when the worm fully leaves the VC. */
    void
    release()
    {
        msg = kInvalidMsg;
        dst = kInvalidNode;
        routed = false;
        outPort = kInvalidPort;
        outVc = kInvalidVc;
        allocCycle = kNever;
        attempted = false;
        lastFeasible = 0;
        headBlockedSince = kNever;
        recovering = false;
        injDone = false;
    }

    /** Checkpoint support. dst and injDone are rebuilt by the
     *  Network's derived-state recompute, not read back. */
    template <typename S>
    void
    saveState(S &s) const
    {
        fifo.saveState(s);
        s.u32(msg);
        s.boolean(routed);
        s.u16(outPort);
        s.u8(outVc);
        s.u64(allocCycle);
        s.boolean(attempted);
        s.u32(lastFeasible);
        s.u64(headBlockedSince);
        s.boolean(recovering);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        fifo.loadState(d);
        msg = d.u32();
        routed = d.boolean();
        outPort = d.u16();
        outVc = d.u8();
        allocCycle = d.u64();
        attempted = d.boolean();
        lastFeasible = d.u32();
        headBlockedSince = d.u64();
        recovering = d.boolean();
        dst = kInvalidNode;
        injDone = false;
    }
};

/**
 * Output-side virtual channel: allocation record plus the credit count
 * for the downstream buffer.
 */
struct OutputVc
{
    bool allocated = false;
    MsgId msg = kInvalidMsg;
    /** Input VC that owns this output VC while allocated. */
    PortId srcPort = kInvalidPort;
    VcId srcVc = kInvalidVc;
    /** Free slots believed available in the downstream buffer. */
    unsigned credits = 0;

    void
    release()
    {
        allocated = false;
        msg = kInvalidMsg;
        srcPort = kInvalidPort;
        srcVc = kInvalidVc;
    }

    template <typename S>
    void
    saveState(S &s) const
    {
        s.boolean(allocated);
        s.u32(msg);
        s.u16(srcPort);
        s.u8(srcVc);
        s.u32(credits);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        allocated = d.boolean();
        msg = d.u32();
        srcPort = d.u16();
        srcVc = d.u8();
        credits = d.u32();
    }
};

} // namespace wormnet

#endif // WORMNET_ROUTER_CHANNEL_HH
