#include "sim/simulator.hpp"

namespace trojanscout::sim {

std::vector<util::BitVec> replay_register(const netlist::Netlist& nl,
                                          const Witness& witness,
                                          const std::string& reg) {
  Simulator simulator(nl);
  const auto& dffs = nl.find_register(reg).dffs;
  std::vector<util::BitVec> trace;
  trace.reserve(witness.frames.size());
  for (const auto& frame : witness.frames) {
    simulator.set_inputs(frame.bits);
    simulator.step();
    trace.push_back(simulator.read_bits(dffs));
  }
  return trace;
}

}  // namespace trojanscout::sim
