// lake_server: the online half of data discovery as a long-lived service —
// load a saved ShardedLakeIndex ("LAKS" manifest or legacy single file)
// once, then serve join/union queries to concurrent clients over a local
// socket, batching in-flight requests into the index's batch entry points.
//
// Serve:        ./build/lake_server <index-file> <socket-path>
//               (runs until SIGINT/SIGTERM, then drains and prints stats)
//
// Distributed:  ./build/lake_server --distributed <manifest.laks> <socket-path>
//               spawns one lake_shard_worker *process* per manifest shard
//               (worker s serves on "<socket-path>.shard-s"), connects a
//               DistributedLakeIndex coordinator over them, and serves the
//               same public socket — clients cannot tell the difference.
//               SIGINT drains the coordinator, then SIGTERMs the workers.
//
// With no arguments, runs a self-contained demo: builds a small in-memory
// lake, serves it from a temp socket, queries it with a LakeClient from
// this same process, and shuts down gracefully.
//
// The matching client side lives in lake_search ("remote" command) and in
// server/lake_client.h for embedding into other programs.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "server/shard_worker.h"
#include "util/random.h"

using namespace tsfm;
namespace fs = std::filesystem;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

void PrintStats(const server::ServerStats& stats) {
  std::printf("served %llu requests in %llu batches (max batch %llu)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch));
  if (stats.requests > 0) {
    std::printf("mean queue wait %.3f ms, mean latency %.3f ms\n",
                stats.total_queue_wait_ms / static_cast<double>(stats.requests),
                stats.total_latency_ms / static_cast<double>(stats.requests));
  }
}

int Serve(const std::string& index_path, const std::string& socket_path) {
  auto loaded = search::ShardedLakeIndex::Load(index_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("index: %zu tables, dim %zu, %s storage, %zu shard%s\n",
              loaded.value().num_tables(), loaded.value().dim(),
              loaded.value().options().storage == search::Storage::kSq8
                  ? "sq8"
                  : "float32",
              loaded.value().num_shards(),
              loaded.value().num_shards() == 1 ? "" : "s");

  server::LakeServer lake_server(std::move(loaded).value());
  if (Status status = lake_server.Start(socket_path); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("serving on %s (ctrl-c to drain and exit)\n", socket_path.c_str());
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("\ndraining...\n");
  lake_server.Stop();
  PrintStats(lake_server.stats());  // still readable after Stop
  return 0;
}

int ServeDistributed(const std::string& manifest_path,
                     const std::string& socket_path) {
  // Workers first (the fleet forks before this process grows threads and
  // rolls partial failures back itself), then the coordinator handshake.
  // Worker s serves on "<socket_path>.shard-s"; workers ignore the
  // terminal's group-wide SIGINT and stop only on the fleet's SIGTERM,
  // after the coordinator has drained.
  auto fleet = server::ShardWorkerFleet::Spawn(manifest_path, socket_path);
  if (!fleet.ok()) {
    std::fprintf(stderr, "worker fleet failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }

  auto coordinator = server::DistributedLakeIndex::Connect(
      manifest_path, fleet.value().sockets());
  if (!coordinator.ok()) {
    std::fprintf(stderr, "coordinator connect failed: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  // Workers inherit the row codec from the shard files they load; surface
  // the manifest's storage here so operators can tell what the fleet runs.
  const char* storage = "float32";
  if (auto manifest = search::LoadLakeManifest(manifest_path); manifest.ok() &&
      manifest.value().storage == search::Storage::kSq8) {
    storage = "sq8";
  }
  std::printf(
      "distributed lake: %zu tables, dim %zu, %s storage, %zu worker "
      "processes\n",
      coordinator.value().num_tables(), coordinator.value().dim(), storage,
      fleet.value().num_workers());

  server::LakeServer lake_server(std::move(coordinator).value());
  if (Status status = lake_server.Start(socket_path); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("serving on %s (ctrl-c to drain and exit)\n",
              socket_path.c_str());
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("\ndraining coordinator, stopping %zu workers...\n",
              fleet.value().num_workers());
  lake_server.Stop();
  PrintStats(lake_server.stats());
  // Worker-side view of the same traffic: each coalesced batch fans out as
  // one SHARD_QUERY per worker, so the fleet total is ~batches x workers.
  const server::DistributedBackend& backend =
      static_cast<const server::DistributedBackend&>(lake_server.backend());
  if (auto worker_stats = backend.index().AggregateStats();
      worker_stats.ok()) {
    std::printf("worker fleet: %llu shard queries served\n",
                static_cast<unsigned long long>(worker_stats.value().requests));
  }
  fleet.value().StopAll();
  return 0;
}

int Demo() {
  const size_t dim = 16;
  Rng rng(11);
  search::ShardedLakeIndex index(dim, /*num_shards=*/3);
  for (int t = 0; t < 40; ++t) {
    std::vector<std::vector<float>> cols(1 + t % 3);
    for (auto& col : cols) {
      col.resize(dim);
      for (auto& x : col) x = static_cast<float>(rng.Normal());
    }
    index.AddTable("demo_" + std::to_string(t), cols);
  }
  std::vector<float> query(dim);
  for (auto& x : query) x = static_cast<float>(rng.Normal());

  std::string socket_path = "/tmp/tsfm_lake_server_demo_" +
                            std::to_string(::getpid()) + ".sock";
  server::LakeServer lake_server(std::move(index));
  if (Status status = lake_server.Start(socket_path); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("demo lake (40 tables, 3 shards) serving on %s\n",
              socket_path.c_str());

  server::LakeClient client;
  if (!client.Connect(socket_path).ok()) return 1;
  auto joinable = client.QueryJoinable(query, 5);
  if (!joinable.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 joinable.status().ToString().c_str());
    return 1;
  }
  std::printf("joinable candidates:\n");
  for (const auto& id : joinable.value()) std::printf("  %s\n", id.c_str());

  auto stats = client.Stats();
  if (stats.ok()) PrintStats(stats.value());
  client.Close();
  lake_server.Stop();
  std::printf("drained cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf("(no arguments; running the self-contained demo)\n\n");
    return Demo();
  }
  if (argc == 4 && std::string(argv[1]) == "--distributed") {
    return ServeDistributed(argv[2], argv[3]);
  }
  if (argc == 3) return Serve(argv[1], argv[2]);
  std::fprintf(stderr,
               "usage: lake_server <index-file> <socket-path>\n"
               "       lake_server --distributed <manifest.laks> <socket-path>\n");
  return 2;
}
