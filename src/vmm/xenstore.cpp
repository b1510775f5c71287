#include "vmm/xenstore.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::vmm {

std::vector<std::string> XenStore::split(const std::string& path) {
  ensure(!path.empty() && path.front() == '/',
         "XenStore: path must start with '/'");
  std::vector<std::string> parts;
  std::string current;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (current.empty()) [[unlikely]] {
        throw_invariant_violation("XenStore: empty path component in '" +
                                  path + "'");
      }
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(path[i]);
    }
  }
  return parts;
}

const XenStore::Node* XenStore::find(const std::string& path) const {
  const Node* node = &root_;
  for (const auto& part : split(path)) {
    const auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

void XenStore::write(const std::string& path, std::string value) {
  Node* node = &root_;
  for (const auto& part : split(path)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      auto child = std::make_unique<Node>();
      it = node->children.emplace(part, std::move(child)).first;
      ++node_count_;
      footprint_ += kNodeOverhead + static_cast<sim::Bytes>(part.size());
    }
    node = it->second.get();
  }
  footprint_ += static_cast<sim::Bytes>(value.size()) -
                static_cast<sim::Bytes>(node->value.size());
  node->value = std::move(value);
  fire_watches(path);
}

std::optional<std::string> XenStore::read(const std::string& path) const {
  const Node* node = find(path);
  if (node == nullptr) return std::nullopt;
  return node->value;
}

bool XenStore::exists(const std::string& path) const {
  return find(path) != nullptr;
}

std::vector<std::string> XenStore::list(const std::string& path) const {
  const Node* node = find(path);
  std::vector<std::string> out;
  if (node == nullptr) return out;
  for (const auto& [name, child] : node->children) out.push_back(name);
  return out;
}

sim::Bytes XenStore::subtree_bytes(const std::string& name,
                                   const Node& node) const {
  sim::Bytes total = kNodeOverhead + static_cast<sim::Bytes>(name.size()) +
                     static_cast<sim::Bytes>(node.value.size());
  for (const auto& [child_name, child] : node.children) {
    total += subtree_bytes(child_name, *child);
  }
  return total;
}

std::size_t XenStore::subtree_nodes(const Node& node) const {
  std::size_t n = 1;
  for (const auto& [name, child] : node.children) n += subtree_nodes(*child);
  return n;
}

std::size_t XenStore::remove(const std::string& path) {
  const auto parts = split(path);
  Node* parent = &root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    const auto it = parent->children.find(parts[i]);
    if (it == parent->children.end()) return 0;
    parent = it->second.get();
  }
  const auto it = parent->children.find(parts.back());
  if (it == parent->children.end()) return 0;
  const std::size_t removed = subtree_nodes(*it->second);
  footprint_ -= subtree_bytes(parts.back(), *it->second);
  node_count_ -= removed;
  parent->children.erase(it);
  fire_watches(path);
  return removed;
}

XenStore::WatchId XenStore::watch(const std::string& prefix, WatchFn fn) {
  ensure(static_cast<bool>(fn), "XenStore::watch: callback required");
  (void)split(prefix);  // validate syntax
  const WatchId id = next_watch_++;
  watches_[id] = {prefix, std::move(fn)};
  return id;
}

void XenStore::unwatch(WatchId id) { watches_.erase(id); }

void XenStore::fire_watches(const std::string& path) {
  // Copy: a watch callback may add/remove watches.
  const auto snapshot = watches_;
  for (const auto& [id, entry] : snapshot) {
    const auto& prefix = entry.first;
    if (path.size() >= prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        (path.size() == prefix.size() || path[prefix.size()] == '/' ||
         prefix == "/")) {
      entry.second(path);
    }
  }
}

void XenStore::clear() {
  root_.children.clear();
  root_.value.clear();
  node_count_ = 0;
  footprint_ = 0;
  watches_.clear();
}

}  // namespace rh::vmm
