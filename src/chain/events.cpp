#include "chain/events.hpp"

namespace chain {

namespace {

std::string find(const std::vector<Attribute>& attributes,
                 const std::string& key) {
  for (const auto& [k, v] : attributes) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

std::string Event::attribute(const std::string& key) const {
  return payload ? find(payload->render(), key) : find(attributes, key);
}

std::vector<Attribute> Event::rendered_attributes() const {
  return payload ? payload->render() : attributes;
}

std::size_t Event::encoded_size() const {
  // {"type":"...","attributes":[{"key":"...","value":"..."},...]}
  std::size_t n = type.size() + 32;
  if (payload) return n + payload->attributes_encoded_size();
  for (const auto& [k, v] : attributes) {
    n += attribute_encoded_size(k.size(), v.size());
  }
  return n;
}

std::size_t encoded_size(const std::vector<Event>& events) {
  std::size_t n = 2;
  for (const Event& e : events) n += e.encoded_size() + 1;
  return n;
}

}  // namespace chain
