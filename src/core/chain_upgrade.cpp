#include "mtlscope/core/chain_upgrade.hpp"

namespace mtlscope::core {

void ChainResolver::add(const zeek::SslRecord& row) {
  if (!row.established) return;
  for (const colfmt::StrVec* chain :
       {&row.cert_chain_fuids, &row.client_cert_chain_fuids}) {
    fuids_.assign(chain->begin(), chain->end());
    resolve(fuids_);
  }
}

void ChainResolver::add(const zeek::SslChainRow& row) {
  if (!row.established) return;
  for (const std::string_view chain :
       {row.cert_chain_fuids, row.client_cert_chain_fuids}) {
    zeek::split_set_field(chain, fuids_, storage_);
    resolve(fuids_);
  }
}

void ChainResolver::resolve(std::span<const std::string_view> fuids) {
  if (fuids.size() < 2) return;
  const auto leaf = registry_.find(fuids.front());
  if (leaf == registry_.end()) return;
  const std::size_t mark = out_.size();
  out_.push_back(&leaf->second);
  for (const std::string_view fuid : fuids.subspan(1)) {
    const auto it = registry_.find(fuid);
    if (it != registry_.end()) out_.push_back(&it->second);
  }
  if (out_.size() == mark + 1) {
    out_.pop_back();
    return;
  }
  out_.push_back(nullptr);
}

void fold_upgrades(const ResolvedChains& resolved) {
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    CertFacts& leaf = *resolved[i];
    bool public_intermediate = false;
    while (resolved[++i] != nullptr) {  // stops on the chain's closing null
      public_intermediate = public_intermediate ||
                            resolved[i]->issuer_class ==
                                trust::IssuerClass::kPublic;
    }
    if (public_intermediate &&
        leaf.issuer_class != trust::IssuerClass::kPublic) {
      leaf.issuer_class = trust::IssuerClass::kPublic;
      leaf.issuer_category = IssuerCategory::kPublic;
    }
  }
}

}  // namespace mtlscope::core
