#include "metadata/catalog.h"

#include <algorithm>
#include <set>

#include "xmlql/parser.h"

namespace nimble {
namespace metadata {

Status Catalog::RegisterSource(
    std::unique_ptr<connector::Connector> source) {
  const std::string name = source->name();
  if (sources_.count(name) > 0) {
    return Status::AlreadyExists("source '" + name + "' already registered");
  }
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("'" + name + "' already names a view");
  }
  sources_[name] = std::move(source);
  return Status::OK();
}

connector::Connector* Catalog::source(const std::string& name) const {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::SourceNames() const {
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, source] : sources_) names.push_back(name);
  return names;
}

Status Catalog::DefineView(const std::string& name,
                           const std::string& query_text,
                           const std::string& description) {
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("view '" + name + "' already defined");
  }
  if (sources_.count(name) > 0) {
    return Status::AlreadyExists("'" + name + "' already names a source");
  }
  NIMBLE_ASSIGN_OR_RETURN(xmlql::Program program,
                          xmlql::ParseProgram(query_text));

  MediatedView view;
  view.name = name;
  view.query_text = query_text;
  view.description = description;

  std::vector<const xmlql::PatternClause*> all_patterns;
  for (const xmlql::Query& branch : program.branches) {
    for (const xmlql::PatternClause& pattern : branch.patterns) {
      all_patterns.push_back(&pattern);
    }
  }
  std::set<std::string> transitive_sources;
  for (const xmlql::PatternClause* pattern_ptr : all_patterns) {
    const xmlql::PatternClause& pattern = *pattern_ptr;
    if (pattern.source.is_view()) {
      const std::string& dep = pattern.source.collection;
      auto it = views_.find(dep);
      if (it == views_.end()) {
        return Status::NotFound(
            "view '" + name + "' references undefined view '" + dep +
            "' (views must be defined bottom-up)");
      }
      view.view_dependencies.push_back(dep);
      for (const std::string& src : it->second.source_dependencies) {
        transitive_sources.insert(src);
      }
    } else {
      const std::string& src = pattern.source.source;
      if (sources_.count(src) == 0) {
        return Status::NotFound("view '" + name +
                                "' references unregistered source '" + src +
                                "'");
      }
      transitive_sources.insert(src);
    }
  }
  view.source_dependencies.assign(transitive_sources.begin(),
                                  transitive_sources.end());
  views_[name] = std::move(view);
  return Status::OK();
}

const MediatedView* Catalog::view(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

Status Catalog::RegisterFragmentMap(FragmentMap map) {
  if (map.source.empty() || map.collection.empty() ||
      map.partition_key.empty()) {
    return Status::InvalidArgument(
        "fragment map needs source, collection and partition key");
  }
  if (map.num_fragments == 0) {
    return Status::InvalidArgument("fragment map with zero fragments");
  }
  if (map.kind == FragmentMap::Kind::kRange &&
      map.range_upper_bounds.size() + 1 != map.num_fragments) {
    return Status::InvalidArgument(
        "range fragment map needs num_fragments-1 upper bounds");
  }
  for (size_t i = 1; i < map.range_upper_bounds.size(); ++i) {
    if (map.range_upper_bounds[i - 1].Compare(map.range_upper_bounds[i]) >= 0) {
      return Status::InvalidArgument(
          "range fragment bounds must be strictly ascending");
    }
  }
  std::string key = map.source + "\x1f" + map.collection;
  if (fragment_maps_.count(key) > 0) {
    return Status::AlreadyExists("collection '" + map.source + ":" +
                                 map.collection + "' is already fragmented");
  }
  fragment_maps_.emplace(std::move(key), std::move(map));
  return Status::OK();
}

const FragmentMap* Catalog::fragment_map(const std::string& source,
                                         const std::string& collection) const {
  auto it = fragment_maps_.find(source + "\x1f" + collection);
  return it == fragment_maps_.end() ? nullptr : &it->second;
}

std::vector<const FragmentMap*> Catalog::FragmentMaps() const {
  std::vector<const FragmentMap*> maps;
  maps.reserve(fragment_maps_.size());
  for (const auto& [key, map] : fragment_maps_) maps.push_back(&map);
  return maps;
}

uint64_t Catalog::AddUpdateListener(UpdateListener listener) {
  MutexLock lock(listeners_mu_);
  uint64_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Catalog::RemoveUpdateListener(uint64_t token) {
  MutexLock lock(listeners_mu_);
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [token](const auto& entry) { return entry.first == token; }),
      listeners_.end());
}

void Catalog::NotifySourceUpdated(const std::string& source_name) {
  // The statistics upkeep runs before the listener fan-out, so a listener
  // that re-plans already sees the bumped epoch.
  statistics_.MarkSourceStale(source_name);
  // Copy under the lock so a listener removing itself cannot deadlock.
  std::vector<UpdateListener> to_notify;
  {
    MutexLock lock(listeners_mu_);
    to_notify.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      to_notify.push_back(listener);
    }
  }
  for (const UpdateListener& listener : to_notify) listener(source_name);
}

Status Catalog::AnalyzeSource(const std::string& source_name,
                              size_t sample_rows) {
  connector::Connector* conn = source(source_name);
  if (conn == nullptr) {
    return Status::NotFound("no source named '" + source_name + "'");
  }
  return statistics_.AnalyzeSource(*conn, sample_rows);
}

Status Catalog::AnalyzeAllSources(size_t sample_rows) {
  for (const auto& [name, conn] : sources_) {
    NIMBLE_RETURN_IF_ERROR(statistics_.AnalyzeSource(*conn, sample_rows));
  }
  return Status::OK();
}

Result<std::vector<std::string>> Catalog::TransitiveSources(
    const std::string& view_name) const {
  const MediatedView* v = view(view_name);
  if (v == nullptr) return Status::NotFound("no view '" + view_name + "'");
  return v->source_dependencies;
}

uint64_t Catalog::ViewSourcesVersion(const MediatedView& view) const {
  uint64_t version = 0;
  for (const std::string& name : view.source_dependencies) {
    connector::Connector* dependency = source(name);
    if (dependency != nullptr) version += dependency->DataVersion();
  }
  return version;
}

}  // namespace metadata
}  // namespace nimble
