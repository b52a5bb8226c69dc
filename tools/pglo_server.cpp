// pglo_server — the pglo socket server (pglo-wire-v1; DESIGN.md §16).
//
//   pglo_server [--host=ADDR] [--port=N] [--max-connections=N]
//               [--blackbox-every=SECS] DBDIR
//
// Opens (creating on first use) the database under DBDIR, bootstraps the
// Inversion file system, and serves large-object and Inversion-path
// operations to pglo-wire-v1 clients — thread-per-connection, one engine
// Session per connection, admission control at --max-connections with a
// typed REJECT frame for the overflow.
//
// Every remote backend appears in the database's activity table, so the
// running server is observable exactly like embedded backends:
// --blackbox-every=SECS dumps the flight recorder to DBDIR/pglo_blackbox.json
// on that cadence, and a second terminal can watch live with
//
//   pglo_top --follow --activity DBDIR/pglo_blackbox.json
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain connections
// (in-flight transactions roll back), flush, close. Exit status: 0 clean
// shutdown, 1 startup/serve failure, 2 usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "db/database.h"
#include "inversion/inversion_fs.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host=ADDR] [--port=N] [--max-connections=N]\n"
               "          [--blackbox-every=SECS] DBDIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pglo::ServerOptions server_options;
  std::string dir;
  int blackbox_every = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--host=", 7) == 0) {
      server_options.host = a + 7;
    } else if (std::strncmp(a, "--port=", 7) == 0) {
      server_options.port = static_cast<uint16_t>(std::atoi(a + 7));
    } else if (std::strncmp(a, "--max-connections=", 18) == 0) {
      server_options.max_connections =
          static_cast<uint32_t>(std::atoi(a + 18));
    } else if (std::strncmp(a, "--blackbox-every=", 17) == 0) {
      blackbox_every = std::atoi(a + 17);
    } else if (a[0] == '-') {
      return Usage(argv[0]);
    } else if (dir.empty()) {
      dir = a;
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  pglo::DatabaseOptions options;
  options.dir = dir;
  options.buffer_pool_frames = 4096;
  options.charge_devices = false;  // serve at wall speed; no 1992 device sim
  pglo::Database db;
  pglo::Status s = db.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(), s.ToString().c_str());
    return 1;
  }

  pglo::InversionFs inv(db.context(), &db.large_objects());
  {
    auto session = db.Connect();
    session->Begin();
    s = inv.Bootstrap(session->txn());
    if (s.ok()) s = session->Commit().status();
    if (!s.ok()) {
      std::fprintf(stderr, "inversion bootstrap: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  pglo::PgloServer server(&db, &inv, server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("pglo_server listening on %s:%u (max %u connections)\n",
              server_options.host.c_str(), server.port(),
              server_options.max_connections);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  int since_dump = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (blackbox_every > 0 && ++since_dump >= blackbox_every * 5) {
      since_dump = 0;
      auto dump = db.DumpBlackbox("pglo_server periodic dump");
      if (!dump.ok()) {
        std::fprintf(stderr, "blackbox dump: %s\n",
                     dump.status().ToString().c_str());
      }
    }
  }

  std::printf("shutting down (%u connections draining)\n",
              server.active_connections());
  server.Stop();
  s = db.Close();
  if (!s.ok()) {
    std::fprintf(stderr, "close: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
