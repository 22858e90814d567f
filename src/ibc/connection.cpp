#include "ibc/connection.hpp"

#include "ibc/host.hpp"

namespace ibc {

std::string connection_phase_name(ConnectionPhase s) {
  switch (s) {
    case ConnectionPhase::kInit: return "INIT";
    case ConnectionPhase::kTryOpen: return "TRYOPEN";
    case ConnectionPhase::kOpen: return "OPEN";
  }
  return "?";
}

util::Bytes ConnectionEnd::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(phase));
  w.str(client_id);
  w.str(counterparty_client_id);
  w.str(counterparty_connection);
  return w.take();
}

bool ConnectionEnd::decode(util::BytesView data, ConnectionEnd& out) {
  Reader r(data);
  std::uint8_t phase_u8 = 0;
  if (!r.u8(phase_u8) || !r.str(out.client_id) ||
      !r.str(out.counterparty_client_id) ||
      !r.str(out.counterparty_connection)) {
    return false;
  }
  out.phase = static_cast<ConnectionPhase>(phase_u8);
  return r.done();
}

ConnectionId ConnectionKeeper::generate_id() {
  return make_connection_id(next_++);
}

void ConnectionKeeper::set(const ConnectionId& id, const ConnectionEnd& end) {
  store_.set(host::connection_key(id), end.encode());
}

util::Result<ConnectionEnd> ConnectionKeeper::get(const ConnectionId& id) const {
  const auto raw = store_.get_view(host::connection_key(id));
  if (!raw) {
    return util::Status::error(util::ErrorCode::kNotFound,
                               "connection not found: " + id);
  }
  ConnectionEnd end;
  if (!ConnectionEnd::decode(*raw, end)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "corrupt connection end: " + id);
  }
  return end;
}

bool ConnectionKeeper::exists(const ConnectionId& id) const {
  return store_.contains(host::connection_key(id));
}

}  // namespace ibc
