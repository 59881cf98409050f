// End-to-end benchmark harness. Each invocation does ONE measured thing in
// a fresh process, so peak RSS, CPU time, the global metrics registry and
// every verdict cache belong to that call alone. perfbench/run.py drives it
// and does all aggregation; this program only measures and prints one JSON
// object on stdout.
//
//   pvrbench setup --workload=W --seed=N --rounds=R
//       Times the first scenario::plan_world call of the process.
//   pvrbench run --workload=W --seed=N --rounds=R --workers=K [--trace-out=FILE]
//       Times one scenario::run_scenario call (planning to scored report)
//       and reports its outputs, CPU, peak RSS and registry deltas.
//   pvrbench probe --seed=N --payload-bytes=P
//       Unit costs of the crypto, core and net public functions on
//       workload-shaped inputs, warmed up before timing.
//
// --trace-out arms obs::TraceWriter for the call and wraps it in a
// benchmark-owned "bench.run_scenario" span, which run.py reduces to
// per-lane self times together with the spans src/ already emits.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/evidence.h"
#include "core/keys.h"
#include "core/verify_context.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/world.h"

namespace {

using namespace pvr;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t rounds = 0;
  std::size_t workers = 1;
  std::size_t payload_bytes = 256;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                                : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      args.workload = v;
    } else if (const char* v = value_of("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--rounds=")) {
      args.rounds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--workers=")) {
      args.workers = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--payload-bytes=")) {
      args.payload_bytes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--trace-out=")) {
      args.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  return args;
}

// The workloads, all online and pipelined (the deployment model). Why each
// was chosen is recorded in BENCHMARK.json and perfbench/README.md.
scenario::ScenarioSpec workload_spec(std::string_view workload,
                                     std::uint64_t seed, std::size_t rounds,
                                     std::size_t workers) {
  scenario::ScenarioSpec spec;
  if (workload == "honest_steady") {
    // The storm's traffic shape with nobody attacking.
    spec = scenario::named_scenario("equivocation_storm", seed, rounds);
    spec.name = "honest_steady";
    spec.adversary = "honest";
    spec.attacked_fraction = 0.0;
  } else if (workload == "equivocation_storm") {
    spec = scenario::named_scenario("equivocation_storm", seed, rounds);
  } else if (workload == "batch_burst") {
    spec = scenario::named_scenario("batch_split_evasion", seed, rounds);
    spec.name = "batch_burst";
  } else {
    throw std::invalid_argument("unknown workload " + std::string(workload));
  }
  if (rounds == 0) throw std::invalid_argument("--rounds must be > 0");
  spec.online = true;
  spec.pipelined = true;
  spec.workers = workers;
  return spec;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Peak RSS of this process's own address space (VmHWM). getrusage's
// ru_maxrss is not used: Linux carries the spawning parent's high-water mark
// across fork+exec into it, so a large parent (run.py) would mask the call.
long maxrss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb;
}

void arm_trace(const std::string& path) {
  if (path.empty()) return;
  if (!obs::TraceWriter::global().open(path)) {
    throw std::runtime_error("tracing is compiled out (PVR_OBS=OFF)");
  }
}

// Closes the capture and returns the events it had to drop.
std::uint64_t close_trace(const std::string& path) {
  if (path.empty()) return 0;
  obs::TraceWriter& tracer = obs::TraceWriter::global();
  const std::uint64_t dropped = tracer.dropped_events();
  if (!tracer.close()) throw std::runtime_error("could not write " + path);
  return dropped;
}

int run_setup(const Args& args) {
  const scenario::ScenarioSpec spec =
      workload_spec(args.workload, args.seed, args.rounds, args.workers);
  const double t0 = now_s();
  const std::size_t keys = scenario::plan_world(spec).keys.private_keys.size();
  const double setup_s = now_s() - t0;
  std::printf("{\"mode\":\"setup\",\"setup_s\":%.6f,\"keys\":%zu,"
              "\"key_bits\":%zu}\n",
              setup_s, keys, spec.key_bits);
  return 0;
}

int run_workload(const Args& args) {
  const scenario::ScenarioSpec spec =
      workload_spec(args.workload, args.seed, args.rounds, args.workers);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  arm_trace(args.trace_out);

  const obs::MetricsSnapshot before = registry.snapshot();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  scenario::ScenarioReport report;
  {
    const obs::TraceSpan span("bench.run_scenario", "bench");
    report = scenario::run_scenario(spec);
  }
  const double wall_s = now_s() - t0;
  const double cpu_used_s = cpu_s() - cpu0;
  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::delta(registry.snapshot(), before);
  const std::uint64_t dropped = close_trace(args.trace_out);

  std::string counters;
  for (const obs::MetricsSnapshot::Entry& entry : delta.scalars) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
                  counters.empty() ? "" : ",", entry.name.c_str(), entry.value);
    counters += buf;
  }
  std::string hists;
  for (const obs::MetricsSnapshot::HistEntry& entry : delta.histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
                  hists.empty() ? "" : ",", entry.name.c_str(), entry.hist.sum);
    hists += buf;
  }

  std::printf(
      "{\"mode\":\"run\",\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"rounds\":%zu,\"workers\":%zu,\"hw_threads\":%zu,\"obs\":%s,"
      "\"wall_s\":%.6f,\"cpu_s\":%.6f,\"maxrss_kb\":%ld,"
      "\"rounds_started\":%" PRIu64 ",\"windows_fired\":%" PRIu64
      ",\"attacked_rounds\":%" PRIu64 ",\"detected_rounds\":%" PRIu64
      ",\"detection_rate\":%.6f,\"evidence_total\":%" PRIu64
      ",\"false_evidence\":%" PRIu64 ",\"audit_failures\":%" PRIu64
      ",\"verify_failures\":%" PRIu64 ",\"bytes_total\":%" PRIu64
      ",\"gossip_messages\":%" PRIu64 ",\"peak_open_rounds\":%" PRIu64
      ",\"peak_root_digests\":%" PRIu64 ",\"pipeline_overlap_ratio\":%.6f"
      ",\"fingerprint\":\"%s\",\"trace_dropped\":%" PRIu64
      ",\"counters\":{%s},\"hist_sums\":{%s}}\n",
      args.workload.c_str(), args.seed, args.rounds, args.workers,
      report.hw_threads, obs::kCompiledIn ? "true" : "false", wall_s,
      cpu_used_s, maxrss_kb(), report.rounds_started, report.windows_fired,
      report.attacked_rounds, report.detected_rounds, report.detection_rate,
      report.evidence_total, report.false_evidence, report.audit_failures,
      report.verify_failures, report.bytes_total, report.gossip_messages,
      report.peak_open_rounds, report.peak_root_digests,
      report.pipeline_overlap_ratio, report.fingerprint().c_str(), dropped,
      counters.c_str(), hists.c_str());
  return 0;
}

// Median per-operation time in ns over `batches` timed batches of `ops`
// calls each, after one untimed warm-up batch.
double median_op_ns(std::size_t ops, const std::function<void()>& op,
                    std::size_t batches = 9) {
  for (std::size_t i = 0; i < ops; ++i) op();
  std::vector<double> per_op;
  for (std::size_t b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < ops; ++i) op();
    per_op.push_back((now_s() - t0) * 1e9 / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

int run_probe(const Args& args) {
  crypto::Drbg rng(args.seed, "perfbench-probe");
  const std::size_t key_bits = scenario::ScenarioSpec{}.key_bits;

  // Key generation at the workloads' modulus size. Prime search time varies
  // per key, so the probe times a fixed, seed-derived batch of keys.
  constexpr std::size_t kKeygenKeys = 16;
  std::vector<bgp::AsNumber> asns;
  for (std::size_t i = 0; i < kKeygenKeys; ++i) {
    asns.push_back(static_cast<bgp::AsNumber>(64512 + i));
  }
  (void)core::generate_keys({1}, rng, key_bits);  // warm-up
  const double k0 = now_s();
  const core::AsKeyPairs keys = core::generate_keys(asns, rng, key_bits);
  const double keygen_ms_per_key = (now_s() - k0) * 1e3 / kKeygenKeys;

  const bgp::AsNumber signer = asns.front();
  const crypto::RsaPrivateKey& key = keys.private_keys.at(signer).priv;
  const std::vector<std::uint8_t> payload = rng.bytes(args.payload_bytes);

  core::SignedMessage signed_message;
  const double sign_ns = median_op_ns(64, [&] {
    signed_message = core::sign_message(signer, key, payload);
  });

  const core::VerifyContext ctx(&keys.directory, /*cache_verdicts=*/false);
  bool verified = true;
  const double verify_ns = median_op_ns(
      256, [&] { verified = ctx.verify(signed_message) && verified; });
  if (!verified) throw std::runtime_error("probe signature did not verify");

  const std::vector<std::uint8_t> block = rng.bytes(4096);
  crypto::Digest sink{};
  const auto sha_ns_per_byte = [&](std::size_t update_bytes) {
    const double ns = median_op_ns(64, [&] {
      crypto::Sha256 hash;
      for (std::size_t at = 0; at < block.size(); at += update_bytes) {
        hash.update(std::span<const std::uint8_t>(block).subspan(at, update_bytes));
      }
      sink = hash.finalize();
    });
    return ns / static_cast<double>(block.size());
  };
  const double sha_small = sha_ns_per_byte(8);
  const double sha_bulk = sha_ns_per_byte(4096);

  // The lockstep deployment's codecs: message bodies, evidence items and
  // metrics snapshots, each encoded and decoded once per operation.
  net::Message message{.from = 1, .to = 2, .channel = "pvr.bundle.agg",
                       .payload = payload};
  std::size_t decoded = 0;
  const double message_codec_ns = median_op_ns(1024, [&] {
    decoded += net::decode_message_body(net::encode_message_body(message))
                   .payload.size();
  });
  core::Evidence evidence;
  evidence.kind = core::ViolationKind::kEquivocation;
  evidence.accused = signer;
  evidence.reporter = asns.back();
  evidence.messages = {signed_message, signed_message};
  const double evidence_codec_ns = median_op_ns(1024, [&] {
    decoded += core::Evidence::decode(evidence.encode()).messages.size();
  });
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  const double snapshot_codec_ns = median_op_ns(256, [&] {
    decoded += obs::MetricsSnapshot::decode(snapshot.encode()).scalars.size();
  });

  std::printf(
      "{\"mode\":\"probe\",\"payload_bytes\":%zu,\"key_bits\":%zu,"
      "\"keygen_ms_per_key\":%.6f,\"sign_us\":%.6f,\"verify_us\":%.6f,"
      "\"sha256_ns_per_byte_small\":%.6f,\"sha256_ns_per_byte_bulk\":%.6f,"
      "\"message_codec_us\":%.6f,\"evidence_codec_us\":%.6f,"
      "\"snapshot_codec_us\":%.6f,\"sink\":%u}\n",
      args.payload_bytes, key_bits, keygen_ms_per_key, sign_ns / 1e3,
      verify_ns / 1e3, sha_small, sha_bulk, message_codec_ns / 1e3,
      evidence_codec_ns / 1e3, snapshot_codec_ns / 1e3,
      static_cast<unsigned>(sink[0] + decoded % 2));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "setup") return run_setup(args);
    if (args.mode == "run") return run_workload(args);
    if (args.mode == "probe") return run_probe(args);
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pvrbench: %s\n", error.what());
    return 2;
  }
}
