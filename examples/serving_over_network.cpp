// Serving over the network: a ServiceHost with two resident CC tenants
// behind the TCP RpcGateway, driven by the blocking RpcClient over
// loopback. This is the end-to-end shape of the serving story — resident
// iterative state (PR 2), one shared worker pool (PR 4), and a binary
// frame protocol with per-tenant routing (this PR).
//
//   client ──TCP──▶ gateway ──▶ host["social"] (streamed CC)
//                           └─▶ host["roads"]  (streamed CC)
//
// Run: ./serving_over_network   (CI smoke-runs it as
// example_serving_over_network on every push, so the socket path stays
// exercised.)
#include <cstdio>

#include "net/client.h"
#include "service/gateway.h"
#include "service/serving_cc.h"

using namespace sfdf;

int main() {
  // Two tenants on one 2-worker pool.
  ServiceHost host(ServiceHost::Options{.workers = 2});
  ServingCc::Options cc_options;
  cc_options.num_vertices = 8;
  cc_options.service.max_batch = 16;
  cc_options.service.max_pending_mutations = 4096;  // bounded admission
  auto social = ServingCc::StartOn(&host, "social", cc_options);
  auto roads = ServingCc::StartOn(&host, "roads", cc_options);
  if (!social.ok() || !roads.ok()) {
    std::printf("tenant start failed\n");
    return 1;
  }
  // Tenants own state the resident plans flush into, so the host must stop
  // before they are destroyed — on EVERY path, including early error
  // returns. Declared after the tenants (and before the gateway) so it
  // runs first on unwind; the explicit StopAll below makes it a no-op on
  // the happy path.
  struct StopGuard {
    ServiceHost* host;
    ~StopGuard() {
      Status ignored = host->StopAll();
      (void)ignored;
    }
  } stop_guard{&host};

  // The gateway picks an ephemeral loopback port.
  auto gateway = RpcGateway::Start(&host, GatewayOptions{});
  if (!gateway.ok()) {
    std::printf("gateway start failed: %s\n",
                gateway.status().ToString().c_str());
    return 1;
  }
  std::printf("gateway listening on 127.0.0.1:%u\n", (*gateway)->port());

  auto client = net::RpcClient::Connect("127.0.0.1", (*gateway)->port());
  if (!client.ok()) {
    std::printf("connect failed: %s\n", client.status().ToString().c_str());
    return 1;
  }
  net::RpcClient& rpc = **client;

  // Stream a few edges into each tenant; each Mutate blocks until its warm
  // incremental round committed server-side.
  for (int i = 0; i < 5; ++i) {
    if (!rpc.Mutate("social", {GraphMutation::EdgeInsert(i, i + 1)}).ok() ||
        !rpc.Mutate("roads", {GraphMutation::EdgeInsert(0, i + 2)}).ok()) {
      std::printf("mutate failed\n");
      return 1;
    }
  }

  // Epoch-tagged point reads and a full snapshot, per tenant.
  for (const char* tenant : {"social", "roads"}) {
    auto query = rpc.QueryKey(tenant, 4);
    auto snapshot = rpc.Snapshot(tenant);
    if (!query.ok() || !query->found || !snapshot.ok()) {
      std::printf("read failed on %s\n", tenant);
      return 1;
    }
    std::printf("%-8s vertex 4 -> component %lld (epoch %llu), "
                "%zu vertices served\n",
                tenant, static_cast<long long>(query->record.GetInt(1)),
                static_cast<unsigned long long>(query->epoch),
                snapshot->records.size());
  }

  // Wire error taxonomy: CC cannot serve deletions incrementally — the
  // gateway answers kReject (client-side InvalidArgument), the connection
  // and the tenant keep serving.
  auto removed = rpc.Mutate("social", {GraphMutation::EdgeRemove(0, 1)});
  std::printf("edge remove -> %s (connection still up: %s)\n",
              removed.status().ToString().c_str(),
              rpc.Ping().ok() ? "yes" : "no");

  // Per-tenant stats over the wire.
  auto stats = rpc.Stats("social");
  if (!stats.ok()) return 1;
  std::printf("social: rounds=%.0f applied=%.0f rejected=%.0f "
              "queue_depth=%.0f round_p50=%.3fms\n",
              stats->Get(net::StatField::kRounds),
              stats->Get(net::StatField::kMutationsApplied),
              stats->Get(net::StatField::kMutationsRejected),
              stats->Get(net::StatField::kAdmissionQueueDepth),
              stats->Get(net::StatField::kRoundP50Ms));

  const RpcGateway::Counters counters = (*gateway)->counters();
  std::printf("gateway: %llu connections, %llu frames in, %llu frames out\n",
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.frames_received),
              static_cast<unsigned long long>(counters.frames_sent));

  // Orderly teardown: gateway before host, tenants after StopAll.
  if (!(*gateway)->Stop().ok() || !host.StopAll().ok()) return 1;
  std::printf("done\n");
  return 0;
}
