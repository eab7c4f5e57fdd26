// Full-chain reference of the superframe collapse.  Production solves
// multiply only a cycle's transmission opportunities
// (hart::PathModel::opportunity_matrices); every other slot of the
// i.i.d. chain is the identity.  This helper rebuilds the chain the
// paper's Section IV unrolls — all Fup + Fdown slots, identities
// included — so the bitwise batteries can collapse it through
// markov::SuperframeKernel and require the production cycle product
// entry for entry (an identity factor contributes exactly av * 1.0 == av
// to each output entry of Gustavson's pass).
#pragma once

#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/sparse.hpp"

namespace whart::verify {

/// The Fup + Fdown per-slot transition matrices of one superframe cycle
/// over `model`'s compact message chain (hops + Goal + Discard), in slot
/// order: each transmission opportunity's factor in its uplink slot, the
/// identity in every idle uplink slot and every downlink slot.
std::vector<linalg::CsrMatrix> full_chain_slot_matrices(
    const hart::PathModel& model, const hart::LinkProbabilityProvider& links);

}  // namespace whart::verify
