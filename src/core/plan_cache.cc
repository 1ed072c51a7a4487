#include "core/plan_cache.h"

#include <cctype>

#include "xmlql/parser.h"

namespace nimble {
namespace core {

std::string CanonicalizeQueryText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  char quote = '\0';
  bool pending_space = false;
  for (char c : text) {
    if (quote != '\0') {
      out.push_back(c);
      if (c == quote) quote = '\0';
      continue;
    }
    if (c == '"' || c == '\'') {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      quote = c;
      out.push_back(c);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
  }
  return out;
}

std::shared_ptr<const CompiledProgram> CompileProgram(xmlql::Program program) {
  auto compiled = std::make_shared<CompiledProgram>();
  // Move the program into its final home *before* fragmenting: fragments
  // hold pointers into the AST, which must not relocate afterwards.
  compiled->program = std::move(program);
  compiled->fragmentations.reserve(compiled->program.branches.size());
  for (const xmlql::Query& branch : compiled->program.branches) {
    compiled->fragmentations.push_back(FragmentQuery(branch));
  }
  return compiled;
}

Result<std::shared_ptr<const CompiledProgram>> CompileProgram(
    std::string_view text) {
  NIMBLE_ASSIGN_OR_RETURN(xmlql::Program program, xmlql::ParseProgram(text));
  return CompileProgram(std::move(program));
}

std::shared_ptr<const CompiledProgram> PlanCache::Lookup(
    const std::string& canonical_text, uint64_t stats_epoch) {
  MutexLock lock(mu_);
  auto it = entries_.find(canonical_text);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second->stats_epoch != stats_epoch) {
    // Compiled under superseded statistics: evict so the caller
    // re-optimizes under the current epoch.
    lru_.erase(it->second);
    entries_.erase(it);
    ++stats_.stats_evictions;
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->compiled;
}

Result<std::shared_ptr<const CompiledProgram>> PlanCache::GetOrCompile(
    std::string_view text, uint64_t stats_epoch) {
  std::string canonical = CanonicalizeQueryText(text);
  std::shared_ptr<const CompiledProgram> compiled =
      Lookup(canonical, stats_epoch);
  if (compiled != nullptr) return compiled;
  NIMBLE_ASSIGN_OR_RETURN(compiled, CompileProgram(text));
  Insert(canonical, compiled, stats_epoch);
  return compiled;
}

void PlanCache::Insert(const std::string& canonical_text,
                       std::shared_ptr<const CompiledProgram> compiled,
                       uint64_t stats_epoch) {
  if (max_entries_ == 0 || compiled == nullptr) return;
  MutexLock lock(mu_);
  auto it = entries_.find(canonical_text);
  if (it != entries_.end()) {
    it->second->compiled = std::move(compiled);
    it->second->stats_epoch = stats_epoch;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.insertions;
    return;
  }
  if (entries_.size() >= max_entries_) {
    ++stats_.evictions;
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{canonical_text, std::move(compiled), stats_epoch});
  entries_[canonical_text] = lru_.begin();
  ++stats_.insertions;
}

void PlanCache::Erase(const std::string& canonical_text) {
  MutexLock lock(mu_);
  auto it = entries_.find(canonical_text);
  if (it == entries_.end()) return;
  lru_.erase(it->second);
  entries_.erase(it);
  ++stats_.invalidations;
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  entries_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace core
}  // namespace nimble
