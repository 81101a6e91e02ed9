#include "opstream.h"

#include <cstdio>

#include "metrics.h"

namespace livebench {

std::string small_path(std::uint32_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/small/s%04u", i);
  return buf;
}
std::string bulk_path(std::uint32_t i) { return "/bulk/b" + std::to_string(i); }
std::string stor_path(std::uint32_t payload) {
  return "/bulk/put" + std::to_string(payload);
}
std::string meta_dir(int session) { return "/meta/u" + std::to_string(session); }
std::string meta_path(int session, std::uint32_t loop) {
  return meta_dir(session) + "/f" + std::to_string(loop);
}

std::uint64_t small_id(std::uint32_t i) { return i; }
std::uint64_t bulk_id(std::uint32_t i) { return 100'000 + i; }
std::uint64_t stor_id(std::uint32_t payload) { return 200'000 + payload; }
std::uint64_t meta_id(int session) {
  return 300'000 + static_cast<std::uint64_t>(session);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::small_read: return "small_read";
    case Workload::meta_session: return "meta_session";
    case Workload::bulk_fig3: return "bulk_fig3";
    case Workload::conn_churn: return "conn_churn";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : {Workload::small_read, Workload::meta_session,
                           Workload::bulk_fig3, Workload::conn_churn}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::chirp: return "chirp";
    case Proto::http: return "http";
    case Proto::nfs: return "nfs";
    case Proto::gridftp: return "gridftp";
  }
  return "?";
}

std::vector<SessionSpec> sessions_of(Workload w) {
  switch (w) {
    case Workload::small_read:
      return {{Proto::chirp, "reader"}, {Proto::http, ""}, {Proto::http, ""},
              {Proto::nfs, ""}};
    case Workload::meta_session:
      return {{Proto::chirp, "u0"}, {Proto::chirp, "u1"},
              {Proto::chirp, "u2"}, {Proto::chirp, "u3"}};
    case Workload::bulk_fig3:
      return {{Proto::chirp, "reader"}, {Proto::http, ""}, {Proto::nfs, ""},
              {Proto::gridftp, "gftp"}};
    case Workload::conn_churn:
      return {{Proto::http, ""}, {Proto::http, ""}, {Proto::http, ""},
              {Proto::http, ""}};
  }
  return {};
}

std::string secret_of(const std::string& user) { return "pw-" + user; }

int cycle_len(Workload w, Proto p) {
  if (w == Workload::meta_session) return 6;
  if (w == Workload::bulk_fig3 && p == Proto::gridftp) return 2;
  return 1;
}

nest::storage::Principal principal_of(const SessionSpec& spec) {
  nest::storage::Principal who;
  who.name = spec.user;
  who.authenticated = !spec.user.empty();
  who.protocol = proto_name(spec.proto);
  return who;
}

OpStream::OpStream(Workload w, std::uint64_t seed, int session)
    : w_(w),
      proto_(sessions_of(w).at(static_cast<std::size_t>(session)).proto),
      rng_(mix64(seed ^ mix64(static_cast<std::uint64_t>(w) * 16 +
                              static_cast<std::uint64_t>(session)))),
      zipf_(kSmallFiles, kZipfTheta) {}

Op OpStream::next() {
  const std::uint64_t i = index_++;
  Op op;
  switch (w_) {
    case Workload::small_read:
      op.kind = rng_.bernoulli(kStatShare) ? OpKind::stat : OpKind::read;
      op.file = static_cast<std::uint32_t>(zipf_.sample(rng_));
      op.verify = true;
      break;
    case Workload::conn_churn:
      op.kind = OpKind::read;
      op.file = static_cast<std::uint32_t>(zipf_.sample(rng_));
      op.verify = true;
      break;
    case Workload::meta_session: {
      static constexpr OpKind kLoop[] = {OpKind::lot_create, OpKind::put,
                                         OpKind::stat,       OpKind::get,
                                         OpKind::unlink,     OpKind::lot_terminate};
      op.kind = kLoop[i % 6];
      op.file = static_cast<std::uint32_t>(i / 6);
      op.verify = true;
      break;
    }
    case Workload::bulk_fig3:
      if (proto_ == Proto::gridftp) {
        // STOR a payload, then RETR it back: the write path and the read
        // path alternate on one control connection.
        op.kind = i % 2 == 0 ? OpKind::stor : OpKind::read;
        op.file = static_cast<std::uint32_t>((i / 2) % kStorPayloads);
      } else {
        op.kind = OpKind::read;
        op.file = static_cast<std::uint32_t>(rng_.uniform(0, kBulkFiles - 1));
      }
      op.verify = rng_.bernoulli(kBulkVerifyShare);
      break;
  }
  return op;
}

}  // namespace livebench
