// End-to-end tests for per-resource energy attribution (docs/ENERGY.md):
// ledger cells populated across components/classes/tenants, export-time
// reconciliation against the sampled PDU total, and byte-identical
// energy.jsonl across repeated seeded runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "obs/jsonl.hpp"
#include "power/energy_ledger.hpp"
#include "ycsb/workload.hpp"
#include "ycsb/ycsb_client.hpp"
#include "test_dirs.hpp"

namespace rc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double classJoules(const power::EnergyMeter& m, power::OpClass cls,
                   bool tenantedOnly = false) {
  double j = 0;
  m.forEachCell([&](power::Component, power::OpClass o, std::uint16_t slot,
                    double v) {
    if (o == cls && (!tenantedOnly || slot > 0)) j += v;
  });
  return j;
}

/// Canonical small run: 4 servers rf=2, tenant-tagged YCSB-A (so reads,
/// updates and replication all charge), PDUs live, full export.
std::unique_ptr<core::Cluster> runWorkload(std::uint64_t seed,
                                           bool metering = true,
                                           const std::string& tenant = "acme") {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 2;
  p.replicationFactor = 2;
  p.seed = seed;
  auto c = std::make_unique<core::Cluster>(p);
  if (!metering) c->setEnergyMetering(false);
  c->sloTracker().declareClass(tenant + "/read",
                               obs::SloTarget{sim::msec(5), 0});
  c->sloTracker().declareClass(tenant + "/update",
                               obs::SloTarget{sim::msec(5), 0});
  const auto table = c->createTable("usertable");
  c->bulkLoad(table, 5'000, 128);
  c->startPduSampling();
  ycsb::YcsbClientParams ycp;
  ycp.tenant = tenant;
  c->configureYcsb(table, ycsb::WorkloadSpec::A(5'000), ycp);
  c->startYcsb();
  c->sim().runFor(sim::seconds(2));
  c->stopYcsb();
  return c;
}

TEST(EnergyE2E, LedgerAttributesAcrossComponentsClassesAndTenants) {
  auto c = runWorkload(42);
  // Every server's dynamic meters must have accrued CPU, NIC and DRAM
  // charges (each serves reads, replicas, or both).
  for (int i = 0; i < c->serverCount(); ++i) {
    const auto& m = c->server(i).node->energyMeter();
    EXPECT_GT(m.componentJoules(power::Component::kCpu), 0) << "server " << i;
    EXPECT_GT(m.componentJoules(power::Component::kNic), 0) << "server " << i;
    EXPECT_GT(m.componentJoules(power::Component::kDram), 0) << "server " << i;
  }
  // Op-class attribution: reads, updates and their replication fan-out are
  // all present, and the YCSB ops carry their tenant slot (slot 0 is the
  // untenanted remainder; slots 1+ map to SLO classes).
  double read = 0, update = 0, repl = 0, tenanted = 0, disk = 0;
  for (int i = 0; i < c->serverCount(); ++i) {
    const auto& m = c->server(i).node->energyMeter();
    read += classJoules(m, power::OpClass::kRead);
    update += classJoules(m, power::OpClass::kUpdate);
    repl += classJoules(m, power::OpClass::kReplication);
    tenanted += classJoules(m, power::OpClass::kRead, /*tenantedOnly=*/true);
    disk += m.componentJoules(power::Component::kDisk);
  }
  EXPECT_GT(read, 0);
  EXPECT_GT(update, 0);
  EXPECT_GT(repl, 0);
  EXPECT_GT(tenanted, 0);
  EXPECT_GE(disk, 0);  // backups may batch past the measured window
}

TEST(EnergyE2E, MeteringOffLeavesCellsEmptyAndTimingUnchanged) {
  auto on = runWorkload(7, /*metering=*/true);
  auto off = runWorkload(7, /*metering=*/false);
  int cells = 0;
  for (int i = 0; i < off->serverCount(); ++i) {
    off->server(i).node->energyMeter().forEachCell(
        [&cells](power::Component, power::OpClass, std::uint16_t, double) {
          ++cells;
        });
  }
  EXPECT_EQ(cells, 0);
  // Charging is pure accounting: the simulation's trajectory must be
  // bit-identical with the meter on or off.
  EXPECT_EQ(on->sim().now(), off->sim().now());
  EXPECT_EQ(on->totalOpsCompleted(), off->totalOpsCompleted());
}

TEST(EnergyE2E, ExportedNodeRowsReconcileWithPduWithinTenthOfPercent) {
  const std::string dir = test::tempPath("energy_reconcile");
  std::filesystem::remove_all(dir);
  auto c = runWorkload(42);
  ASSERT_TRUE(c->exportMetrics(dir));
  int nodeRows = 0;
  bool sawCluster = false;
  const auto malformed = obs::jsonl::readFile(
      dir + "/energy.jsonl", [&](const obs::jsonl::Record& r) {
        if (r.type() == "energy_node") {
          ++nodeRows;
          const double total = r.num("total_j");
          const double pdu = r.num("pdu_j");
          ASSERT_GT(pdu, 0) << "node " << r.num("node");
          EXPECT_LE(std::abs(total - pdu) / pdu, 0.001)
              << "node " << r.num("node");
        }
        if (r.type() == "energy_remainder") {
          EXPECT_GE(r.num("joules", -1.0), 0) << "node " << r.num("node");
        }
        if (r.type() == "energy_cluster") {
          sawCluster = true;
          EXPECT_GT(r.num("total_j"), 0);
          EXPECT_GT(r.num("ops"), 0);
          EXPECT_GT(r.num("ops_per_j"), 0);
        }
      });
  EXPECT_EQ(malformed, std::optional<std::size_t>(0));
  EXPECT_EQ(nodeRows, c->serverCount());
  EXPECT_TRUE(sawCluster);
}

TEST(EnergyE2E, TenantClassNamesRoundTripThroughEnergyJsonl) {
  // A quote and a backslash must be escaped, and a long name must not cut
  // its line short: every line parses and names the declared classes.
  for (const std::string& tenant :
       {std::string("q\"uo\\te"), std::string(300, 'n')}) {
    const std::string dir = test::tempPath("energy_names");
    std::filesystem::remove_all(dir);
    auto c = runWorkload(42, /*metering=*/true, tenant);
    ASSERT_TRUE(c->exportMetrics(dir));
    std::set<std::string> classes;
    std::size_t records = 0;
    const auto malformed = obs::jsonl::readFile(
        dir + "/energy.jsonl", [&](const obs::jsonl::Record& r) {
          ++records;
          if (r.type() == "energy_tenant") classes.insert(r.str("class"));
        });
    const std::string bytes = slurp(dir + "/energy.jsonl");
    EXPECT_EQ(malformed, std::optional<std::size_t>(0)) << tenant;
    EXPECT_EQ(records, static_cast<std::size_t>(std::count(
                           bytes.begin(), bytes.end(), '\n')));
    EXPECT_EQ(classes, (std::set<std::string>{tenant + "/read",
                                              tenant + "/update"}));
  }
}

TEST(EnergyE2E, EnergyJsonlIsByteIdenticalAcrossRepeatedRuns) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    std::string first;
    for (int rep = 0; rep < 2; ++rep) {
      const std::string dir = test::tempPath("energy_det_") +
                              std::to_string(seed) + "_" +
                              std::to_string(rep);
      std::filesystem::remove_all(dir);
      auto c = runWorkload(seed);
      ASSERT_TRUE(c->exportMetrics(dir));
      const std::string bytes = slurp(dir + "/energy.jsonl");
      ASSERT_FALSE(bytes.empty());
      if (rep == 0) {
        first = bytes;
      } else {
        EXPECT_EQ(first, bytes) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace rc
