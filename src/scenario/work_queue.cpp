#include "scenario/work_queue.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "util/atomic_file.hpp"
#include "util/config.hpp"
#include "util/digest.hpp"

namespace caem::scenario {

namespace fs = std::filesystem;

namespace {

std::string local_hostname() {
  char buffer[256] = {0};
  if (::gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown-host";
  return buffer[0] != '\0' ? std::string(buffer) : std::string("unknown-host");
}

/// Monotonic per-process counter: distinguishes boards (and steal
/// destinations) created by one process.
std::uint64_t next_nonce() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1);
}

std::string random_suffix() {
  static const std::uint64_t entropy = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  std::ostringstream out;
  out << std::hex << entropy;
  return out.str();
}

/// Whole file as bytes; std::nullopt when it cannot be opened (absent).
std::optional<std::string> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::uint64_t ClaimBoard::now_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

ClaimBoard::ClaimBoard(const std::string& cache_root, const std::string& sweep, double lease_s)
    : sweep_(sweep),
      dir_((fs::path(cache_root) / "sweeps" / sweep / "claims").string()),
      host_(local_hostname()),
      lease_s_(lease_s) {
  if (cache_root.empty()) throw std::invalid_argument("ClaimBoard: empty cache directory");
  if (sweep.empty()) throw std::invalid_argument("ClaimBoard: empty sweep digest");
  if (!(lease_s > 0.0)) throw std::invalid_argument("ClaimBoard: lease must be > 0 seconds");
  // host:pid:nonce-random — unique across hosts (hostname), processes
  // (pid), and boards within one process (nonce); the random suffix
  // guards against pid reuse across a crash/restart on one host.
  token_ = host_ + ":" + std::to_string(::getpid()) + ":" + std::to_string(next_nonce()) + "-" +
           random_suffix();
}

std::string ClaimBoard::claim_path(std::size_t job) const {
  return (fs::path(dir_) / ("job_" + std::to_string(job) + ".claim")).string();
}

std::string ClaimBoard::claim_body(std::size_t job) const {
  std::ostringstream body;
  body << "v = 1\n"
       << "sweep = " << sweep_ << '\n'
       << "job = " << job << '\n'
       << "token = " << token_ << '\n'
       << "host = " << host_ << '\n'
       << "pid = " << ::getpid() << '\n'
       << "epoch_ms = " << now_ms() << '\n'
       << "lease_s = " << lease_s_ << '\n';
  return body.str();
}

std::optional<ClaimInfo> ClaimBoard::peek(std::size_t job) const {
  const std::optional<std::string> bytes = read_bytes(claim_path(job));
  if (!bytes.has_value()) return std::nullopt;
  return parse(*bytes, job);
}

std::optional<ClaimInfo> ClaimBoard::parse(const std::string& bytes, std::size_t job) const {
  try {
    const util::Config config = util::Config::from_text(bytes);
    if (config.get_int("v", -1) != 1) return std::nullopt;
    if (config.get_string("sweep", "") != sweep_) return std::nullopt;
    ClaimInfo info;
    info.job = static_cast<std::size_t>(config.get_int("job", -1));
    if (info.job != job) return std::nullopt;
    info.token = config.get_string("token", "");
    if (info.token.empty()) return std::nullopt;
    info.host = config.get_string("host", "");
    info.pid = static_cast<std::uint64_t>(config.get_int("pid", 0));
    info.epoch_ms = static_cast<std::uint64_t>(config.get_int("epoch_ms", 0));
    info.lease_s = config.get_double("lease_s", 0.0);
    return info;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/hand-damaged claim reads as unreadable
  }
}

std::string ClaimBoard::eviction_lock_path(std::size_t job, const std::string& judged) const {
  return claim_path(job) + ".evict-" + util::content_digest(judged);
}

bool ClaimBoard::evict(std::size_t job, const std::string& judged) {
  // Renaming the claim path away would take whatever stands there NOW,
  // which may be a racing stealer's fresh claim published since this
  // board read `judged` — two holders, one cell run twice.  Instead the
  // eviction of one particular claim is serialized by a lock file named
  // after its bytes: atomic_create_file lets exactly one of the
  // stealers that judged it hold the lock, and that one re-reads the
  // claim under the lock and deletes it only if it still is `judged`.
  // A stealer that read it earlier and gets the lock later finds the
  // new holder's claim instead and leaves it alone.
  const std::string lock = eviction_lock_path(job, judged);
  std::error_code error;
  if (!util::atomic_create_file(lock, token_, "claim eviction lock")) {
    // Held by a peer mid-eviction, or left behind by one that crashed
    // holding it: a lock older than this board's lease is abandoned.
    // Clearing it lets the next pass retry the eviction.
    const fs::file_time_type written = fs::last_write_time(lock, error);
    const auto lease = std::chrono::duration_cast<fs::file_time_type::duration>(
        std::chrono::duration<double>(lease_s_));
    if (!error && fs::file_time_type::clock::now() - written > lease) fs::remove(lock, error);
    return false;
  }
  const std::string path = claim_path(job);
  const bool still_judged = read_bytes(path) == judged;
  if (still_judged) fs::remove(path, error);
  fs::remove(lock, error);
  return still_judged;
}

ClaimBoard::Claim ClaimBoard::try_claim(std::size_t job) {
  const std::string path = claim_path(job);
  // Each pass either acquires, observes a healthy foreign holder, or
  // evicts a stale/corrupt claim and retries.  The bound only guards
  // against a pathological acquire/release storm; hitting it simply
  // reports busy and the caller repolls later.
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (util::atomic_create_file(path, claim_body(job), "work claim")) return Claim::kWon;
    const std::optional<std::string> seen = read_bytes(path);
    if (!seen.has_value()) continue;  // holder released: re-try the acquire
    const std::optional<ClaimInfo> standing = parse(*seen, job);
    if (!standing.has_value()) {
      // Present but unreadable: a claim is published complete (temp +
      // hard link), so this is hand damage — evict it like a stale one.
      if (evict(job, *seen)) ++stolen_;
      continue;
    }
    if (standing->token == token_) return Claim::kWon;  // already ours
    const double lease_s = standing->lease_s > 0.0 ? standing->lease_s : lease_s_;
    const std::uint64_t lease_ms = static_cast<std::uint64_t>(lease_s * 1000.0);
    const std::uint64_t now = now_ms();
    // A healthy holder's stamp lies within [now - lease, now + lease]:
    // the claim clock is WALL clock compared across hosts, so modest
    // skew must read as healthy in both directions.  Beyond that window
    // the claim is dead either way — aged past its lease (crashed
    // holder), or stamped more than one lease in the FUTURE (a
    // fast-clock host, or a corrupt stamp).  The future case matters:
    // before this guard such a claim could never expire in this
    // process's frame, leaving the cell unstealable until the skewed
    // host aged it out itself — exactly the straggler the lease
    // protocol exists to prevent.
    const bool expired = now > standing->epoch_ms + lease_ms;
    const bool future_dated = standing->epoch_ms > now + lease_ms;
    if (!expired && !future_dated) return Claim::kBusy;  // healthy holder
    if (evict(job, *seen)) ++stolen_;
    // Lost the steal race (or won it): either way loop — the next pass
    // acquires, or observes the winning stealer's fresh claim as busy.
  }
  return Claim::kBusy;
}

void ClaimBoard::refresh(std::size_t job) const {
  // Rename-replace of our own claim with a fresh stamp.  Only the
  // holder calls this, well inside its lease; if a stealer evicted us
  // anyway (extreme descheduling) the refresh re-publishes our claim
  // and both execute the cell — wasteful, but stores are idempotent.
  util::atomic_write_file(claim_path(job), claim_body(job), "work claim refresh");
}

void ClaimBoard::release(std::size_t job) const {
  std::error_code error;
  fs::remove(claim_path(job), error);  // best-effort: a leftover claim merely expires
}

}  // namespace caem::scenario
