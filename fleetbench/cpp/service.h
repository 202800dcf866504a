// The system under test, booted in-process exactly as `dialed-serve
// --state-dir DIR --partitions N` boots it: fleet::partitioned_fleet::open
// on a fresh state dir, every device provisioned, net::attest_server
// accepting on loopback.
#ifndef FLEETBENCH_SERVICE_H
#define FLEETBENCH_SERVICE_H

#include <memory>
#include <string>

#include "fleet/partition.h"
#include "net/server.h"
#include "workloads.h"

namespace fleetbench {

class service {
 public:
  /// Empty state dir -> partitions opened, every device provisioned
  /// (firmware build + artifact interning), server accepting. `dir` must
  /// not exist yet.
  service(const workload& w, const std::string& dir);
  /// Stops the server, closes the fleet and deletes the state dir.
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  dialed::fleet::partitioned_fleet& fleet() { return *fleet_; }
  dialed::fleet::partition_router& router() { return fleet_->router(); }
  dialed::net::attest_server& server() { return *server_; }
  std::uint16_t port() const { return server_->tcp_port(); }
  /// Sum of the partition stores' WAL bytes.
  std::uint64_t wal_bytes();

 private:
  std::string dir_;
  std::unique_ptr<dialed::fleet::partitioned_fleet> fleet_;
  std::unique_ptr<dialed::net::attest_server> server_;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_SERVICE_H
