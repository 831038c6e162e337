#include "transport/request_reply.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::transport {

namespace {

/// Initial width of a request or reply ring (doubles on demand; a
/// reply ring stops at its cache's window).
constexpr std::size_t kInitialRingSlots = 64;

}  // namespace

// --------------------------------------------------------- RetryChannel

RetryChannel::RetryChannel(sim::Host& host, sim::HostAddr dst,
                           std::uint16_t src_port, std::uint16_t dst_port,
                           RetryOptions options)
    : host_{&host},
      dst_{dst},
      src_port_{src_port},
      dst_port_{dst_port},
      options_{options},
      requests_{kInitialRingSlots} {
    DAIET_EXPECTS(options_.initial_rto > 0);
    DAIET_EXPECTS(options_.max_attempts >= 1);
}

bool RetryChannel::barred(const KeyWindow& window, bool is_write) const noexcept {
    // FIFO through the queue: nothing may overtake a queued request.
    if (window.queue_head != 0) return true;
    if (is_write) {
        // A write waits for every older request on its key...
        return window.write_in_flight || window.reads_in_flight > 0;
    }
    // ...and every request waits for older writes on its key. Reads of
    // one key may overlap each other freely.
    return window.write_in_flight;
}

RetryChannel::KeyWindow& RetryChannel::window_for(const Key16& key) {
    if (const auto it = windows_.find(key); it != windows_.end()) return it->second;
    if (spare_windows_.empty()) return windows_[key];
    WindowMap::node_type node = std::move(spare_windows_.back());
    spare_windows_.pop_back();
    node.key() = key;
    node.mapped() = KeyWindow{};
    return windows_.insert(std::move(node)).position->second;
}

std::uint32_t RetryChannel::submit(const Key16& key, bool is_write,
                                   const MakePayload& make) {
    DAIET_EXPECTS(make != nullptr);
    const std::uint32_t seq = next_seq_;
    std::array<std::byte, kMaxPayload> payload{};
    ByteWriter out{std::span<std::byte>{payload}};
    make(seq, out);  // throws BufferError past kMaxPayload bytes
    ++next_seq_;
    DAIET_EXPECTS(requests_.find(seq) == nullptr);
    Request& request = requests_.insert(seq);
    request.key = key;
    request.is_write = is_write;
    request.submitted = host_->simulator().now();
    request.payload = payload;
    request.payload_size = static_cast<std::uint8_t>(out.size());
    ++stats_.requests;
    KeyWindow& window = window_for(key);
    if (barred(window, is_write)) {
        if (window.queue_tail != 0) {
            requests_.find(window.queue_tail)->next_queued = seq;
        } else {
            window.queue_head = seq;
        }
        window.queue_tail = seq;
        ++stats_.barrier_delays;
    } else {
        launch(request, window);
    }
    return seq;
}

void RetryChannel::launch(Request& request, KeyWindow& window) {
    request.in_flight = true;
    if (request.is_write) {
        window.write_in_flight = true;
    } else {
        ++window.reads_in_flight;
    }
    transmit(request);
}

void RetryChannel::transmit(Request& request) {
    ++request.attempts;
    if (request.attempts > 1) ++stats_.retransmits;
    request.deferred = false;  // each transmission earns one deferral
    request.last_sent = host_->simulator().now();
    if (trace::enabled()) {
        auto& t = trace::tracer();
        const std::uint64_t tag = request_tag(host_->addr(), request.seq);
        t.record({host_->simulator().now(), 0, tag, request.attempts,
                  t.intern(host_->name()),
                  request.attempts > 1 ? trace::EventKind::kRetransmit
                                       : trace::EventKind::kRequestSend});
        // Bind the outgoing frame's trace id to this request: the
        // kHostTx event a few calls down consumes the annotation.
        t.annotate_next_tx(tag);
    }
    host_->udp_send(dst_, src_port_, dst_port_, request.bytes());
    // Exponential backoff per retransmission (shift capped to keep the
    // arithmetic sane even with a pathological attempt budget).
    const auto shift = std::min<std::uint32_t>(request.attempts - 1, 10);
    arm(request, current_rto() << shift);
}

void RetryChannel::arm(Request& request, sim::SimTime delay) {
    const std::uint32_t gen = ++request.timer_gen;
    host_->simulator().schedule_after(
        delay, [alive = std::weak_ptr<const bool>{alive_}, this,
                seq = request.seq, gen] {
            if (!alive.expired()) on_timeout(seq, gen);
        });
}

void RetryChannel::note_congestion() {
    ++stats_.congestion_marks;
    if (!options_.ecn_backoff) return;
    // Hold for about one smoothed RTT — long enough for the marked
    // queue to drain a round, short enough that a genuinely lost
    // request's (single) deferral costs a fraction of its RTO.
    const auto hold = have_rtt_
                          ? std::max(kMinRto,
                                     static_cast<sim::SimTime>(srtt_))
                          : options_.initial_rto;
    congested_until_ =
        std::max(congested_until_, host_->simulator().now() + hold);
}

void RetryChannel::on_timeout(std::uint32_t seq, std::uint32_t gen) {
    Request* found = requests_.find(seq);
    if (found == nullptr || !found->in_flight || found->timer_gen != gen) return;
    Request& request = *found;
    const sim::SimTime now = host_->simulator().now();
    // Followers queued behind this request's key barrier inherit any
    // deferral wholesale — for them the hold is pure added latency, so
    // a request with followers always retransmits on schedule.
    const auto wit = windows_.find(request.key);
    const bool has_followers =
        wit != windows_.end() && wit->second.queue_head != 0;
    if (options_.ecn_backoff && now < congested_until_ && !request.deferred &&
        !has_followers) {
        // The fabric told us a queue is standing: this expiry is more
        // likely a queued request than a lost one, and retransmitting
        // would deepen the very queue delaying it. Wait out the hold
        // window once — no attempt consumed — then let the normal RTO
        // machinery proceed: a single deferral per transmission keeps
        // genuine losses from stalling behind a continuously-marked
        // fabric (marks arrive with every reply while a queue stands).
        ++stats_.ecn_backoffs;
        request.deferred = true;
        if (trace::enabled()) {
            auto& t = trace::tracer();
            t.record({now, 0, request_tag(host_->addr(), seq), congested_until_,
                      t.intern(host_->name()), trace::EventKind::kEcnBackoff});
        }
        arm(request, congested_until_ - now);
        return;
    }
    if (request.attempts >= options_.max_attempts) {
        const Key16 key = request.key;
        const bool was_write = request.is_write;
        if (trace::enabled()) {
            auto& t = trace::tracer();
            t.record({now, 0, request_tag(host_->addr(), seq), request.attempts,
                      t.intern(host_->name()), trace::EventKind::kAbandon});
        }
        requests_.erase(request);
        ++stats_.abandoned;
        // A given-up write must not wedge every later request on its key.
        release(key, was_write);
        return;
    }
    transmit(request);
}

bool RetryChannel::nudge(std::uint32_t seq) {
    Request* request = requests_.find(seq);
    if (request == nullptr || !request->in_flight) return false;
    if (request->attempts >= options_.max_attempts) return false;
    ++stats_.nudges;
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.record({host_->simulator().now(), 0, request_tag(host_->addr(), seq), 0,
                  t.intern(host_->name()), trace::EventKind::kNudge});
    }
    transmit(*request);  // re-arming disarms the pending RTO
    return true;
}

std::optional<RetryChannel::Completion> RetryChannel::complete(std::uint32_t seq) {
    Request* found = requests_.find(seq);
    if (found == nullptr || !found->in_flight) {
        // Unknown seq: a duplicate of an already-completed request (or
        // a reply outliving its abandoned request). Queued requests
        // have never been sent, so a "reply" for one is equally bogus.
        ++stats_.duplicate_replies;
        return std::nullopt;
    }
    Request& request = *found;
    if (request.attempts == 1) {
        // Karn's rule: an RTT spanning a retransmission is ambiguous
        // (the reply may answer either copy) — only clean samples feed
        // the estimator.
        observe_rtt(host_->simulator().now() - request.last_sent);
    }
    const Completion done{request.key, request.is_write, request.submitted};
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.record({host_->simulator().now(), 0, request_tag(host_->addr(), seq),
                  request.attempts, t.intern(host_->name()), trace::EventKind::kReplyRx});
    }
    // Freeing the slot disarms the RTO: its event finds no request.
    requests_.erase(request);
    ++stats_.replies;
    release(done.key, done.is_write);
    return done;
}

void RetryChannel::release(const Key16& key, bool was_write) {
    const auto wit = windows_.find(key);
    if (wit == windows_.end()) return;
    KeyWindow& window = wit->second;
    if (was_write) {
        window.write_in_flight = false;
    } else if (window.reads_in_flight > 0) {
        --window.reads_in_flight;
    }
    // Launch whatever the head of the queue now admits: consecutive
    // reads drain together, a write drains alone. Queued requests have
    // no RTO armed, so none can leave the ring while queued.
    while (window.queue_head != 0) {
        Request* next = requests_.find(window.queue_head);
        DAIET_ASSERT(next != nullptr);
        const bool admit =
            next->is_write ? !window.write_in_flight && window.reads_in_flight == 0
                           : !window.write_in_flight;
        if (!admit) break;
        window.queue_head = next->next_queued;
        if (window.queue_head == 0) window.queue_tail = 0;
        launch(*next, window);
    }
    if (!window.write_in_flight && window.reads_in_flight == 0 &&
        window.queue_head == 0) {
        spare_windows_.push_back(windows_.extract(wit));
    }
}

void RetryChannel::observe_rtt(sim::SimTime sample) {
    const auto rtt = static_cast<double>(sample);
    if (!have_rtt_) {
        have_rtt_ = true;
        srtt_ = rtt;
        rttvar_ = rtt / 2.0;
        return;
    }
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::fabs(srtt_ - rtt);
    srtt_ = 0.875 * srtt_ + 0.125 * rtt;
}

sim::SimTime RetryChannel::current_rto() const noexcept {
    if (!have_rtt_) return options_.initial_rto;
    const double rto = kSrttMult * srtt_ + 4.0 * rttvar_;
    return std::max(kMinRto, static_cast<sim::SimTime>(rto));
}

// ----------------------------------------------------------- ReplyCache

ReplyCache::ReplyCache(std::uint32_t window) : window_{window} {
    DAIET_EXPECTS(std::has_single_bit(window_));
}

Sighting ReplyCache::classify(sim::HostAddr client, std::uint32_t seq) const {
    if (seq == 0) return Sighting::kNew;
    const auto it = clients_.find(client);
    if (it == clients_.end()) return Sighting::kNew;
    const PerClient& pc = it->second;
    if (pc.replies.find(seq) != nullptr) return Sighting::kDuplicate;
    if (seq <= floor_of(pc)) return Sighting::kForgotten;
    return Sighting::kNew;
}

std::optional<std::span<const std::byte>> ReplyCache::find(sim::HostAddr client,
                                                           std::uint32_t seq) const {
    const auto it = clients_.find(client);
    if (it == clients_.end()) return std::nullopt;
    const Reply* reply = it->second.replies.find(seq);
    if (reply == nullptr) return std::nullopt;
    return std::span<const std::byte>{reply->bytes.data(), reply->size};
}

void ReplyCache::record(sim::HostAddr client, std::uint32_t seq,
                        std::span<const std::byte> reply) {
    if (seq == 0) return;
    if (reply.size() > kMaxPayload) {
        throw BufferError{"ReplyCache: reply larger than kMaxPayload"};
    }
    PerClient& pc =
        clients_.try_emplace(client, std::min<std::size_t>(kInitialRingSlots, window_))
            .first->second;
    DAIET_EXPECTS(seq > floor_of(pc));  // a kForgotten seq is never recorded
    if (seq > pc.max_seq) {
        // Prune the replies the advancing window leaves behind. Live
        // seqs lie in (old floor, old max], so the walk is bounded by
        // the window and amortizes to the seqs the floor passes.
        const std::uint32_t old_floor = floor_of(pc);
        const std::uint32_t old_max = pc.max_seq;
        pc.max_seq = seq;
        const std::uint32_t prune_to = std::min(floor_of(pc), old_max);
        for (std::uint32_t s = old_floor + 1; s <= prune_to && pc.replies.size() > 0;
             ++s) {
            if (Reply* stale = pc.replies.find(s)) pc.replies.erase(*stale);
        }
    }
    Reply& slot = pc.replies.insert(seq);
    std::copy(reply.begin(), reply.end(), slot.bytes.begin());
    slot.size = static_cast<std::uint8_t>(reply.size());
    DAIET_ENSURES(pc.replies.capacity() <= window_);
}

std::size_t ReplyCache::entries() const noexcept {
    std::size_t n = 0;
    for (const auto& [client, pc] : clients_) n += pc.replies.size();
    return n;
}

}  // namespace daiet::transport
