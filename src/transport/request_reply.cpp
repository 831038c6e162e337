#include "transport/request_reply.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::transport {

// --------------------------------------------------------- RetryChannel

RetryChannel::RetryChannel(sim::Host& host, sim::HostAddr dst,
                           std::uint16_t src_port, std::uint16_t dst_port,
                           RetryOptions options)
    : host_{&host},
      dst_{dst},
      src_port_{src_port},
      dst_port_{dst_port},
      options_{options} {
    DAIET_EXPECTS(options_.initial_rto > 0);
    DAIET_EXPECTS(options_.max_attempts >= 1);
}

bool RetryChannel::barred(const KeyWindow& window, bool is_write) const noexcept {
    // FIFO through the queue: nothing may overtake a queued request.
    if (!window.queued.empty()) return true;
    if (is_write) {
        // A write waits for every older request on its key...
        return window.write_in_flight || window.reads_in_flight > 0;
    }
    // ...and every request waits for older writes on its key. Reads of
    // one key may overlap each other freely.
    return window.write_in_flight;
}

std::uint32_t RetryChannel::submit(const Key16& key, bool is_write,
                                   const MakePayload& make) {
    DAIET_EXPECTS(make != nullptr);
    const std::uint32_t seq = next_seq_++;
    Request request;
    request.key = key;
    request.is_write = is_write;
    request.payload = make(seq);
    const auto [it, inserted] = requests_.emplace(seq, std::move(request));
    DAIET_EXPECTS(inserted);
    ++stats_.requests;
    KeyWindow& window = windows_[key];
    if (barred(window, is_write)) {
        window.queued.push_back(seq);
        ++stats_.barrier_delays;
    } else {
        launch(seq, it->second, window);
    }
    return seq;
}

void RetryChannel::launch(std::uint32_t seq, Request& request, KeyWindow& window) {
    request.in_flight = true;
    if (request.is_write) {
        window.write_in_flight = true;
    } else {
        ++window.reads_in_flight;
    }
    transmit(seq, request);
}

void RetryChannel::transmit(std::uint32_t seq, Request& request) {
    ++request.attempts;
    if (request.attempts > 1) ++stats_.retransmits;
    request.deferred = false;  // each transmission earns one deferral
    request.last_sent = host_->simulator().now();
    if (trace::enabled()) {
        auto& t = trace::tracer();
        const std::uint64_t tag = request_tag(host_->addr(), seq);
        t.record({host_->simulator().now(), 0, tag, request.attempts,
                  t.intern(host_->name()),
                  request.attempts > 1 ? trace::EventKind::kRetransmit
                                       : trace::EventKind::kRequestSend});
        // Bind the outgoing frame's trace id to this request: the
        // kHostTx event a few calls down consumes the annotation.
        t.annotate_next_tx(tag);
    }
    host_->udp_send(dst_, src_port_, dst_port_, request.payload);
    // Exponential backoff per retransmission (shift capped to keep the
    // arithmetic sane even with a pathological attempt budget).
    const auto shift =
        static_cast<unsigned>(std::min<std::size_t>(request.attempts - 1, 10));
    request.timer = host_->timer_after(current_rto() << shift,
                                       [this, seq] { on_timeout(seq); });
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

void RetryChannel::on_timeout(std::uint32_t seq) {
    const auto it = requests_.find(seq);
    if (it == requests_.end() || !it->second.in_flight) return;
    Request& request = it->second;
    const sim::SimTime now = host_->simulator().now();
    // Followers queued behind this request's key barrier inherit any
    // deferral wholesale — for them the hold is pure added latency, so
    // a request with followers always retransmits on schedule.
    const auto wit = windows_.find(it->second.key);
    const bool has_followers =
        wit != windows_.end() && !wit->second.queued.empty();
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
        request.timer = host_->timer_after(congested_until_ - now,
                                           [this, seq] { on_timeout(seq); });
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
        requests_.erase(it);
        ++stats_.abandoned;
        // Release the barrier before notifying: a given-up write must
        // not wedge every later request on its key.
        release(key, was_write);
        if (on_abandon) on_abandon(seq);
        return;
    }
    transmit(seq, request);
}

bool RetryChannel::nudge(std::uint32_t seq) {
    const auto it = requests_.find(seq);
    if (it == requests_.end() || !it->second.in_flight) return false;
    Request& request = it->second;
    if (request.attempts >= options_.max_attempts) return false;
    if (request.timer) request.timer->cancel();
    ++stats_.nudges;
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.record({host_->simulator().now(), 0, request_tag(host_->addr(), seq), 0,
                  t.intern(host_->name()), trace::EventKind::kNudge});
    }
    transmit(seq, request);
    return true;
}

bool RetryChannel::complete(std::uint32_t seq) {
    const auto it = requests_.find(seq);
    if (it == requests_.end() || !it->second.in_flight) {
        // Unknown seq: a duplicate of an already-completed request (or
        // a reply outliving its abandoned request). Queued requests
        // have never been sent, so a "reply" for one is equally bogus.
        ++stats_.duplicate_replies;
        return false;
    }
    Request& request = it->second;
    if (request.attempts == 1) {
        // Karn's rule: an RTT spanning a retransmission is ambiguous
        // (the reply may answer either copy) — only clean samples feed
        // the estimator.
        observe_rtt(host_->simulator().now() - request.last_sent);
    }
    if (request.timer) request.timer->cancel();
    const Key16 key = request.key;
    const bool was_write = request.is_write;
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.record({host_->simulator().now(), 0, request_tag(host_->addr(), seq),
                  request.attempts, t.intern(host_->name()), trace::EventKind::kReplyRx});
    }
    requests_.erase(it);
    ++stats_.replies;
    release(key, was_write);
    return true;
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
    // reads drain together, a write drains alone.
    while (!window.queued.empty()) {
        const std::uint32_t head = window.queued.front();
        const auto rit = requests_.find(head);
        if (rit == requests_.end()) {  // abandoned while queued (defensive)
            window.queued.pop_front();
            continue;
        }
        Request& next = rit->second;
        const bool admit =
            next.is_write ? !window.write_in_flight && window.reads_in_flight == 0
                          : !window.write_in_flight;
        if (!admit) break;
        window.queued.pop_front();
        launch(head, next, window);
    }
    if (!window.write_in_flight && window.reads_in_flight == 0 &&
        window.queued.empty()) {
        windows_.erase(wit);
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
    DAIET_EXPECTS(window_ > 0);
}

Sighting ReplyCache::classify(sim::HostAddr client, std::uint32_t seq) const {
    if (seq == 0) return Sighting::kNew;
    const auto it = clients_.find(client);
    if (it == clients_.end()) return Sighting::kNew;
    const PerClient& pc = it->second;
    if (pc.replies.contains(seq)) return Sighting::kDuplicate;
    if (pc.max_seq > window_ && seq <= pc.max_seq - window_) {
        return Sighting::kForgotten;
    }
    return Sighting::kNew;
}

const std::vector<std::byte>* ReplyCache::find(sim::HostAddr client,
                                               std::uint32_t seq) const {
    const auto it = clients_.find(client);
    if (it == clients_.end()) return nullptr;
    const auto rit = it->second.replies.find(seq);
    return rit == it->second.replies.end() ? nullptr : &rit->second;
}

void ReplyCache::record(sim::HostAddr client, std::uint32_t seq,
                        std::vector<std::byte> reply) {
    if (seq == 0) return;
    PerClient& pc = clients_[client];
    pc.replies[seq] = std::move(reply);
    if (seq > pc.max_seq) {
        pc.max_seq = seq;
        if (pc.max_seq > window_) {
            const std::uint32_t floor = pc.max_seq - window_;
            pc.replies.erase(pc.replies.begin(), pc.replies.upper_bound(floor));
        }
    }
}

std::size_t ReplyCache::entries() const noexcept {
    std::size_t n = 0;
    for (const auto& [client, pc] : clients_) n += pc.replies.size();
    return n;
}

}  // namespace daiet::transport
