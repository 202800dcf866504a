#include "service.h"

#include <filesystem>

#include "common/error.h"

namespace fleetbench {

namespace fs = std::filesystem;

service::service(const workload& w, const std::string& dir) : dir_(dir) {
  if (fs::exists(dir_)) {
    throw dialed::error("fleetbench: state dir " + dir_ + " already exists");
  }
  dialed::store::fleet_store::options opts;
  opts.master_key = master_key();
  fleet_ = std::make_unique<dialed::fleet::partitioned_fleet>(
      dialed::fleet::partitioned_fleet::open(dir_, w.partitions, opts));

  // The service builds its own firmware from source, as an operator's
  // provisioning step would; the generator's copies are not shared.
  std::vector<dialed::instr::linked_program> progs;
  for (const auto& g : w.groups) {
    progs.push_back(dialed::apps::build_app(
        g.app, dialed::instr::instrumentation::dialed));
  }
  for (const auto& d : w.devices) fleet_->provision(d.id, progs[d.group]);

  server_ = std::make_unique<dialed::net::attest_server>(
      fleet_->router(), dialed::net::server_config{}, fleet_->stores());
  server_->start();
}

service::~service() {
  if (server_) server_->stop();
  server_.reset();
  fleet_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

std::uint64_t service::wal_bytes() {
  std::uint64_t n = 0;
  for (auto* st : fleet_->stores()) {
    if (st != nullptr) n += st->wal_bytes();
  }
  return n;
}

}  // namespace fleetbench
