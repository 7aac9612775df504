// Quickstart: the full trojanscout flow on a 40-line custom IP.
//
//  1. Describe a third-party IP as a netlist (here: a tiny bus-bridge with a
//     configuration register — and a hidden Trojan a rogue vendor added).
//  2. Write down the register's *valid ways* (the datasheet contract).
//  3. Hand both to the detector (Algorithm 1) and let bounded model checking
//     search for an input sequence that corrupts the register outside the
//     contract.
//
// Build & run:  ./quickstart
#include <iostream>

#include "core/parallel_detector.hpp"
#include "netlist/wordops.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"

using namespace trojanscout;

int main(int argc, char** argv) {
  // No flags: anything on the command line is a usage error.
  if (!util::CliParser(argc, argv).check_flags({})) return 1;

  // --- 1. The vendor's IP: a bus bridge with an 8-bit config register. ----
  designs::Design ip;
  ip.name = "bus-bridge";
  netlist::Netlist& nl = ip.nl;

  const auto reset = nl.add_input_port("reset", 1)[0];
  const auto wr_en = nl.add_input_port("wr_en", 1)[0];
  const auto wr_data = nl.add_input_port("wr_data", 8);
  const auto bus = nl.add_input_port("bus", 8);

  const auto config = netlist::w_make_register(nl, "config", 8, 0x00);

  // Hidden Trojan: after seeing the byte 0x5A on the bus three times, the
  // config register is silently forced to 0xFF (e.g. "all access enabled").
  const auto seen_magic = netlist::w_eq_const(nl, bus, 0x5A);
  const auto count = netlist::w_make_register(nl, "trj_count", 2, 0);
  const auto fire = nl.b_and(seen_magic, netlist::w_eq_const(nl, count, 2));
  netlist::w_connect(
      nl, count,
      netlist::w_mux(nl, nl.b_and(seen_magic, nl.b_not(fire)),
                     netlist::w_inc(nl, count), count));

  netlist::Word next = config;
  next = netlist::w_mux(nl, wr_en, wr_data, next);             // valid write
  next = netlist::w_mux(nl, reset, netlist::w_const(nl, 0, 8), next);
  next = netlist::w_mux(nl, fire, netlist::w_const(nl, 0xFF, 8), next);  // !!
  netlist::w_connect(nl, config, next);
  nl.add_output_port("config_out", config);

  // --- 2. The defender's contract: how config may legally change. ---------
  properties::RegisterSpec spec;
  spec.reg = "config";
  spec.ways.push_back({"Reset=1", "Any", "0x00", reset,
                       netlist::w_const(nl, 0, 8)});
  spec.ways.push_back({"Write enable", "Any", "write data", wr_en, wr_data});
  ip.spec.registers.push_back(spec);
  ip.critical_registers = {"config"};

  // --- 3. Detect. ----------------------------------------------------------
  core::ParallelDetectorOptions options;
  options.detector.engine.kind = core::EngineKind::kBmc;
  options.detector.engine.max_frames = 32;
  options.detector.scan_pseudo_critical = false;  // single-register IP
  options.detector.check_bypass = false;          // no obligations declared
  options.jobs = 1;
  core::ParallelDetector detector(ip, options);
  const core::DetectionReport report = detector.run();

  std::cout << report.summary() << "\n\n";
  if (report.trojan_found) {
    const auto& witness = *report.findings.front().check.witness;
    std::cout << "Trigger sequence found by BMC:\n"
              << witness.to_string(nl) << "\n";
    const auto trace = sim::replay_register(nl, witness, "config");
    std::cout << "config register over the replayed witness:";
    for (const auto& value : trace) std::cout << " 0x" << value.to_hex_string();
    std::cout << "\n(the final value 0xff was never written through a valid "
                 "way)\n";
  }
  return report.trojan_found ? 0 : 1;
}
