#include "kvcache/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "netsim/link.hpp"
#include "runtime/sampler.hpp"
#include "trace/metrics.hpp"

namespace daiet::kv {

std::vector<KvOpSpec> client_op_stream(const KvWorkload& workload, std::size_t ci,
                                       std::size_t n_clients) {
    // Per-client deterministic stream: ops and keys are drawn up front
    // so scheduling order never affects the sequence.
    Rng rng{SplitMix64{workload.seed + 0x9e37u * (ci + 1)}.next()};
    std::size_t lo = 0;
    std::size_t span = workload.num_keys;
    if (workload.partition_keys) {
        // num_keys >= n_clients (checked by the caller), so the slices
        // [ci*per, ci*per+per) are disjoint: one writer per key.
        const std::size_t per = workload.num_keys / n_clients;
        lo = ci * per;
        span = per;
    }
    // Zipf(0) degenerates to the uniform distribution, so one sampler
    // covers both the skewed and the uniform workloads.
    const ZipfSampler zipf{span, std::max(workload.zipf_s, 0.0)};

    std::vector<KvOpSpec> ops;
    ops.reserve(workload.requests_per_client);
    for (std::size_t r = 0; r < workload.requests_per_client; ++r) {
        KvOpSpec op;
        op.is_get = rng.next_bool(workload.get_fraction);
        std::size_t rank = zipf(rng);
        if (workload.hotset_rotate_every != 0) {
            // Drifting popularity: the rank->key mapping shifts by
            // rotate_by every rotate_every requests, moving the head
            // of the Zipf distribution onto fresh keys.
            const std::size_t phase = r / workload.hotset_rotate_every;
            rank = (rank + phase * workload.hotset_rotate_by) % span;
        }
        op.key = KvService::key_of(lo + rank);
        op.value = static_cast<WireValue>((ci + 1) * 1000003u +
                                          static_cast<std::uint32_t>(r));
        op.at = workload.start + ci * kClientStagger +
                r * workload.request_interval;
        ops.push_back(op);
    }
    return ops;
}

namespace {

void add_cache_stats(KvCacheStats& into, const KvCacheStats& s) {
    into.gets_seen += s.gets_seen;
    into.hits += s.hits;
    into.misses += s.misses;
    into.puts_seen += s.puts_seen;
    into.invalidations += s.invalidations;
    into.refreshes += s.refreshes;
    into.replies_seen += s.replies_seen;
}

}  // namespace

KvService::KvService(rt::ClusterRuntime& rt, KvServiceOptions options)
    : KvService{rt,
                "kv",
                options.config,
                {options.server_host},
                std::move(options.client_hosts),
                rt.host(options.server_host).addr(),
                [](const Key16&) { return std::size_t{0}; }} {}

KvService::KvService(rt::ClusterRuntime& rt, std::string name, const KvConfig& config,
                     const std::vector<std::size_t>& server_hosts,
                     std::vector<std::size_t> client_hosts, sim::HostAddr client_target,
                     RackOf rack_of)
    : rt_{&rt},
      name_{std::move(name)},
      rack_of_{std::move(rack_of)},
      client_hosts_{std::move(client_hosts)} {
    DAIET_EXPECTS(!server_hosts.empty());
    const auto is_server = [&](std::size_t i) {
        return std::ranges::find(server_hosts, i) != server_hosts.end();
    };
    for (const std::size_t s : server_hosts) {
        DAIET_EXPECTS(s < rt.hosts().size());
        DAIET_EXPECTS(std::ranges::count(server_hosts, s) == 1);  // one rack per host
        sim::Host& host = rt.host(s);
        Rack& rack = racks_.emplace_back();
        rack.host = s;
        rack.server = std::make_unique<KvStoreServer>(host, config);
        if (config.cache_slots == 0) continue;  // no cache: no tenant, no controller
        // Lossy fabrics are fine: the retry transport retransmits at
        // the clients, the server answers copies from its reply cache,
        // and the switch validates a slot only from the original ACK
        // of the last PUT to cross it — a lost ACK or an abandoned
        // write leaves the slot invalid until the next install, never
        // stale.
        auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(rt.network().edge_switch_of(host));
        if (sw == nullptr) {
            throw std::runtime_error{
                "KvService: a storage rack's edge switch is not programmable "
                "(build the cluster with daiet=true or set config.cache_slots to 0)"};
        }
        rack.tor = sw;
        rack.cache = std::make_shared<KvCacheSwitchProgram>(
            config, host.addr(), rt.chip_at(sw->id()), rt.router_at(sw->id()));
        rt.add_tenant(sw->id(), rack.cache);
        rack.controller = std::make_unique<KvCacheController>(*rack.cache, *rack.server);
    }

    if (client_hosts_.empty()) {
        for (std::size_t i = 0; i < rt.hosts().size(); ++i) {
            if (!is_server(i)) client_hosts_.push_back(i);
        }
    }
    DAIET_EXPECTS(!client_hosts_.empty());
    for (const std::size_t i : client_hosts_) {
        DAIET_EXPECTS(i < rt.hosts().size() && !is_server(i));
        clients_.push_back(std::make_unique<KvClient>(rt.host(i), config, client_target));
    }
}

const KvService::Rack& KvService::at(std::size_t rack) const {
    DAIET_EXPECTS(rack < racks_.size());
    return racks_[rack];
}

KvClient& KvService::client(std::size_t i) {
    DAIET_EXPECTS(i < clients_.size());
    return *clients_[i];
}

void KvService::preload(std::size_t num_keys) {
    // Idempotent: never roll an already-present value (e.g. an
    // acknowledged PUT from an earlier workload on this service) back
    // to its preload default — a later promotion would re-serve it.
    for (std::size_t i = 0; i < num_keys; ++i) {
        const Key16 key = key_of(i);
        const std::size_t rack = rack_of_(key);
        DAIET_ASSERT(rack < racks_.size());
        KvStoreServer& server = *racks_[rack].server;
        if (!server.store().contains(key)) server.preload(key, preload_value_of(i));
    }
}

void KvService::schedule(const KvWorkload& workload) {
    DAIET_EXPECTS(workload.num_keys > 0);
    DAIET_EXPECTS(workload.requests_per_client > 0);
    DAIET_EXPECTS(workload.get_fraction >= 0.0 && workload.get_fraction <= 1.0);
    // The single-writer-per-key guarantee needs a slice per client.
    DAIET_EXPECTS(!workload.partition_keys ||
                  workload.num_keys >= clients_.size());
    preload(workload.num_keys);

    // Each client's ops go on its own host's simulator (its shard under
    // parallel simulation); the op timestamps are absolute either way.
    const std::size_t n_clients = clients_.size();
    for (std::size_t ci = 0; ci < n_clients; ++ci) {
        sim::Simulator& sim = rt_->host(client_hosts_[ci]).simulator();
        KvClient& client = *clients_[ci];
        for (const KvOpSpec& op : client_op_stream(workload, ci, n_clients)) {
            sim.schedule_at(op.at, [&client, op] {
                if (op.is_get) {
                    client.get(op.key);
                } else {
                    client.put(op.key, op.value);
                }
            });
        }
    }

    // Every rack is built alike: either all have a cache controller or
    // none does.
    if (racks_.front().controller != nullptr && workload.rebalance_interval > 0) {
        const sim::SimTime horizon =
            workload.start + n_clients * kClientStagger +
            workload.requests_per_client * workload.request_interval;
        // A promotion pass reads each rack's store and pokes the cache
        // program on that rack's ToR. One rack and its ToR always share
        // a shard, so the pass goes on the first rack server's host
        // simulator; a multi-rack core runs sequentially only (the
        // sharded deployment refuses the parallel driver).
        sim::Simulator& server_sim = rt_->host(racks_.front().host).simulator();
        for (sim::SimTime at = workload.start + workload.rebalance_interval;
             at <= horizon; at += workload.rebalance_interval) {
            server_sim.schedule_at(at, [this] { rebalance_racks(); });
        }
    }
}

void KvService::rebalance_racks() {
    for (Rack& rack : racks_) {
        if (rack.controller != nullptr) rack.controller->rebalance();
    }
}

KvRunStats KvService::collect() const {
    // Rebuild the SLO monitor from scratch each collect(): the client
    // logs are the source of truth, so repeated collect() calls stay
    // idempotent.
    slo_.reset();
    if (slo_spec_) slo_ = std::make_unique<trace::SloMonitor>(*slo_spec_);
    const auto now = static_cast<std::uint64_t>(rt_->now());

    KvRunStats out;
    LogHistogram gets;
    LogHistogram puts;
    for (const auto& client : clients_) {
        const KvClient::Stats& s = client->stats();
        const transport::RetryStats& t = client->channel().stats();
        out.gets_sent += s.gets_sent;
        out.puts_sent += s.puts_sent;
        out.get_replies += s.get_replies;
        out.put_acks += s.put_acks;
        out.switch_hits += s.switch_hits;
        out.edge_hits += s.edge_hits;
        out.nacks += s.nacks;
        out.nack_retries += s.nack_retries;
        out.retransmits += t.retransmits;
        out.duplicate_replies += t.duplicate_replies;
        out.abandoned += t.abandoned;
        out.congestion_marks += t.congestion_marks;
        out.ecn_backoffs += t.ecn_backoffs;
        gets.merge(client->get_latency());
        puts.merge(client->put_latency());
        for (const KvClient::OpRecord& rec : client->log()) {
            out.last_completion = std::max(out.last_completion, rec.completed);
            if (slo_) {
                slo_->record_success(static_cast<std::uint64_t>(rec.completed),
                                     static_cast<std::uint64_t>(rec.latency));
            }
        }
        if (slo_) {
            // Abandoned requests carry no completion stamp; charge them
            // at the end of the run (they failed by then by definition).
            for (std::uint64_t i = 0; i < t.abandoned; ++i) slo_->record_failure(now);
        }
    }
    for (const Rack& rack : racks_) {
        const KvStoreServer::Stats& s = rack.server->stats();
        out.server_gets += s.gets;
        out.server_puts += s.puts;
        out.server_duplicates += s.duplicates;
        if (rack.cache != nullptr) add_cache_stats(out.cache, rack.cache->stats());
        if (rack.controller != nullptr) {
            out.promotions += rack.controller->stats().promotions;
            out.evictions += rack.controller->stats().evictions;
            out.rebalances += rack.controller->stats().rebalances;
        }
    }
    if (!gets.empty()) {
        out.mean_get_ns = gets.mean();
        out.p50_get_ns = gets.percentile(50.0);
        out.p99_get_ns = gets.percentile(99.0);
    }
    if (!puts.empty()) out.mean_put_ns = puts.mean();

    // Publish into the process-wide metrics registry: every BENCH_*.json
    // written after this collect() carries the run's numbers. Server
    // GETs go out summed ("server") and per rack ("shard<i>").
    auto& reg = trace::metrics();
    const auto publish = [&](const char* stat, std::uint64_t value,
                             std::string_view node = {}) {
        reg.counter(name_ + "." + stat, name_, node).set(value);
    };
    publish("gets_sent", out.gets_sent);
    publish("get_replies", out.get_replies);
    publish("switch_hits", out.switch_hits);
    publish("edge_hits", out.edge_hits);
    publish("nacks", out.nacks);
    publish("retransmits", out.retransmits);
    publish("abandoned", out.abandoned);
    publish("server_gets", out.server_gets, "server");
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        publish("server_gets", racks_[r].server->stats().gets, "shard" + std::to_string(r));
    }
    reg.histogram(name_ + ".get_latency_ns", name_).assign(gets);
    reg.histogram(name_ + ".put_latency_ns", name_).assign(puts);
    if (slo_) slo_->publish();
    return out;
}

void KvService::set_slo(trace::SloSpec spec) {
    if (spec.service.empty()) spec.service = name_;
    slo_spec_ = std::move(spec);
    slo_.reset();
}

void KvService::install_probes(rt::FabricSampler& sampler) const {
    for (const Rack& rack : racks_) {
        const KvCacheSwitchProgram* cache = rack.cache.get();
        if (cache == nullptr) continue;
        sampler.add_probe(name_ + ".cache_hits", rack.tor->name(),
                          [cache] { return static_cast<double>(cache->stats().hits); });
        sampler.add_probe(name_ + ".cache_misses", rack.tor->name(), [cache] {
            return static_cast<double>(cache->stats().misses);
        });
    }
    add_client_probe(sampler, "retransmits", &transport::RetryStats::retransmits);
    add_client_probe(sampler, "abandoned", &transport::RetryStats::abandoned);
}

void KvService::add_client_probe(rt::FabricSampler& sampler, const char* stat,
                                 std::uint64_t transport::RetryStats::*field) const {
    const auto* clients = &clients_;
    sampler.add_probe(name_ + "." + stat, "kv-clients", [clients, field] {
        std::uint64_t n = 0;
        for (const auto& c : *clients) n += c->channel().stats().*field;
        return static_cast<double>(n);
    });
}

KvRunStats KvService::run(const KvWorkload& workload) {
    schedule(workload);
    rt_->run();
    return collect();
}

}  // namespace daiet::kv
