// Multi-protocol quality of service: the capability the paper argues JBOS
// cannot provide (Section 4.2). One NeST serves Chirp and FTP clients
// concurrently while the stride scheduler is configured to give Chirp twice
// the bandwidth of FTP; the example measures the achieved ratio.
//
// (This demo runs on real loopback sockets with the appliance's bandwidth
// cap supplying the contention that makes shares bind; the *ratio* is what
// the scheduler controls. The fig4_proportional bench does the full
// calibrated version on the simulated substrate.)
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "client/chirp_client.h"
#include "common/units.h"
#include "client/ftp_client.h"
#include "client/http_client.h"
#include "server/nest_server.h"

using namespace nest;

int main() {
  server::NestServerOptions opts;
  opts.capacity = 200'000'000;
  opts.tm.scheduler = "stride";
  opts.transfer_slots = 1;
  // Cap the appliance at 400 MB/s: loopback is far faster, so without a
  // cap the server is never the bottleneck and a work-conserving scheduler
  // (correctly) lets every class run at demand speed. At the cap, the
  // configured shares bind.
  opts.bandwidth_limit = 400 * kMB;
  auto server = server::NestServer::start(opts);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().to_string().c_str());
    return 1;
  }
  (*server)->gsi().add_user("admin", "s");

  // Administrator preference: Chirp gets 2x the bandwidth of FTP.
  (*server)->tm().stride()->set_tickets("chirp", 2);
  (*server)->tm().stride()->set_tickets("ftp", 1);

  // Stage a 4 MB file.
  auto admin = client::ChirpClient::connect(
      "127.0.0.1", (*server)->chirp_port(), "admin", "s");
  const std::string payload(16'000'000, 'q');
  admin->put("/data.bin", payload).ok();

  std::printf("serving /data.bin to 2 Chirp + 2 FTP client loops for ~3s "
              "with tickets chirp:ftp = 2:1...\n");

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> chirp_bytes{0};
  std::atomic<std::int64_t> ftp_bytes{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      auto chirp = client::ChirpClient::connect(
          "127.0.0.1", (*server)->chirp_port(), "admin", "s");
      if (!chirp.ok()) return;
      while (!stop) {
        auto r = chirp->get("/data.bin");
        if (r.ok()) chirp_bytes += static_cast<std::int64_t>(r->size());
      }
    });
    clients.emplace_back([&] {
      auto ftp = client::FtpClient::connect("127.0.0.1",
                                            (*server)->ftp_port());
      if (!ftp.ok()) return;
      while (!stop) {
        auto r = ftp->retr("/data.bin");
        if (r.ok()) ftp_bytes += static_cast<std::int64_t>(r->size());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop = true;
  for (auto& t : clients) t.join();

  const double h = static_cast<double>(chirp_bytes.load());
  const double f = static_cast<double>(ftp_bytes.load());
  std::printf(
      "delivered: chirp=%.1f MB ftp=%.1f MB ratio=%.2f (target 2.0)\n",
      h / 1e6, f / 1e6, f > 0 ? h / f : 0.0);

  // Per-class accounting as the transfer core saw it.
  for (const auto& [cls, bytes] :
       (*server)->dispatcher().core().class_bytes()) {
    std::printf("  transfer core bytes: %-6s %lld bytes\n", cls.c_str(),
                static_cast<long long>(bytes));
  }
  (*server)->stop();
  return 0;
}
