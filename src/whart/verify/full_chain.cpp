#include "whart/verify/full_chain.hpp"

#include <span>
#include <utility>

namespace whart::verify {

std::vector<linalg::CsrMatrix> full_chain_slot_matrices(
    const hart::PathModel& model, const hart::LinkProbabilityProvider& links) {
  std::vector<linalg::CsrMatrix> factors = model.opportunity_matrices(links);
  const std::span<const hart::PathModel::Opportunity> opportunities =
      model.opportunities();
  std::vector<linalg::CsrMatrix> slots(
      model.config().superframe.cycle_slots(),
      linalg::CsrMatrix::identity(model.config().hop_count() + 2));
  for (std::size_t i = 0; i < opportunities.size(); ++i)
    slots[opportunities[i].slot - 1] = std::move(factors[i]);
  return slots;
}

}  // namespace whart::verify
