// A programmable switch: a pipeline plus ports, SRAM book and counters.
// This is the unit the network simulator instantiates per switch node.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/resources.hpp"

namespace daiet::dp {

struct SwitchConfig {
    std::uint16_t num_ports{64};
    /// SRAM available to registers and tables. Default 20 MiB, in the
    /// "few tens of MBs" range the paper quotes for Tofino-class chips.
    std::size_t sram_bytes{20ull << 20};
    PipelineConfig pipeline{};
};

class PipelineSwitch {
public:
    PipelineSwitch(std::string name, SwitchConfig config)
        : name_{std::move(name)}, config_{config}, sram_{config.sram_bytes} {}

    /// Bind the dataplane program. Must happen before the first packet.
    void load_program(std::shared_ptr<PipelineProgram> program) {
        pipeline_.emplace(config_.pipeline, std::move(program));
    }

    bool has_program() const noexcept { return pipeline_.has_value(); }

    /// Process a packet arriving on `in_port`; returns all packets to
    /// transmit, each with meta().egress_port set by the program.
    std::vector<Packet> receive(Packet packet, PortId in_port) {
        std::vector<Packet> out;
        receive_into(std::move(packet), in_port, out);
        return out;
    }

    /// Allocation-free variant of receive(): appends to `out` so the
    /// per-hop result vector can be a reused scratch buffer.
    void receive_into(Packet packet, PortId in_port, std::vector<Packet>& out) {
        DAIET_EXPECTS(pipeline_.has_value());
        DAIET_EXPECTS(in_port < config_.num_ports);
        packet.meta().ingress_port = in_port;
        pipeline_->process_into(std::move(packet), out);
    }

    SramBook& sram() noexcept { return sram_; }
    const SramBook& sram() const noexcept { return sram_; }
    const PipelineStats& stats() const {
        DAIET_EXPECTS(pipeline_.has_value());
        return pipeline_->stats();
    }
    const std::string& name() const noexcept { return name_; }
    const SwitchConfig& config() const noexcept { return config_; }
    PipelineProgram& program() noexcept {
        DAIET_EXPECTS(pipeline_.has_value());
        return pipeline_->program();
    }

private:
    std::string name_;
    SwitchConfig config_;
    SramBook sram_;
    /// Held inline, so a hop reads the switch's pipeline without a
    /// pointer chase to a separate allocation.
    std::optional<Pipeline> pipeline_;
};

}  // namespace daiet::dp
