// End-to-end tests for the nest-cli binary: every subcommand family is
// exercised against a live in-process server by spawning the real
// executable (path injected via the NEST_CLI_PATH compile definition) and
// checking exit codes and output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "fault/failpoint.h"
#include "server/nest_server.h"

namespace nest {
namespace {

namespace fsys = std::filesystem;

struct CliResult {
  int code = -1;
  std::string out;  // stdout + stderr interleaved
};

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::registry().disarm_all();
    dir_ = (fsys::temp_directory_path() /
            ("nest_cli_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
    server::NestServerOptions opts;
    opts.capacity = 4'000'000;
    opts.journal_dir = dir_ + "/journal";
    opts.http_port = -1;
    opts.ftp_port = -1;
    opts.gridftp_port = -1;
    opts.nfs_port = -1;
    auto server = server::NestServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    server_ = std::move(server.value());
    server_->gsi().add_user("alice", "alice-secret", {"physics"});
    server_->gsi().add_user("root", "root-secret");
  }
  void TearDown() override {
    fault::registry().disarm_all();
    if (server_) server_->stop();
    fsys::remove_all(dir_);
  }

  // Runs `nest-cli <host> <port> [auth] <args...>`, capturing all output.
  CliResult cli_as(const std::string& user, const std::string& secret,
                   const std::vector<std::string>& args) {
    return cli_at(server_->chirp_port(), user, secret, args);
  }
  CliResult cli_at(std::uint16_t port, const std::string& user,
                   const std::string& secret,
                   const std::vector<std::string>& args) {
    std::string cmd =
        std::string(NEST_CLI_PATH) + " 127.0.0.1 " + std::to_string(port);
    if (!user.empty()) {
      cmd += " -u " + shell_quote(user) + " -k " + shell_quote(secret);
    }
    for (const auto& a : args) cmd += " " + shell_quote(a);
    cmd += " 2>&1";
    CliResult r;
    FILE* p = ::popen(cmd.c_str(), "r");
    if (!p) return r;
    char buf[4096];
    std::size_t n = 0;
    while ((n = ::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
    const int st = ::pclose(p);
    r.code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return r;
  }
  CliResult cli(const std::vector<std::string>& args) {
    return cli_as("alice", "alice-secret", args);
  }

  std::string dir_;
  std::unique_ptr<server::NestServer> server_;
};

TEST_F(CliTest, UsageErrorsExitTwo) {
  // No command, unknown command, malformed port, wrong arity.
  CliResult r;
  FILE* p = ::popen((std::string(NEST_CLI_PATH) + " 2>&1").c_str(), "r");
  ASSERT_NE(p, nullptr);
  char buf[4096];
  std::size_t n = 0;
  while ((n = ::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  r.code = WEXITSTATUS(::pclose(p));
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);

  EXPECT_EQ(cli({"frobnicate"}).code, 2);
  EXPECT_EQ(cli({"ls"}).code, 2);           // missing operand
  EXPECT_EQ(cli({"lot-create", "x", "y"}).code, 2);  // non-numeric
}

TEST_F(CliTest, AuthFailureExitsOne) {
  const auto r = cli_as("alice", "wrong-secret", {"ls", "/"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("error:"), std::string::npos);
}

TEST_F(CliTest, FileCommandsRoundTrip) {
  const std::string local = dir_ + "/local.dat";
  {
    std::ofstream f(local, std::ios::binary);
    f << "cli-payload";
  }
  EXPECT_EQ(cli({"put", "/data", local}).code, 0);
  {
    const auto r = cli({"get", "/data"});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "cli-payload");
  }
  {
    const auto r = cli({"stat", "/data"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("file 11 alice"), std::string::npos) << r.out;
  }
  EXPECT_EQ(cli({"mkdir", "/sub"}).code, 0);
  {
    const auto r = cli({"ls", "/"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("data"), std::string::npos);
    EXPECT_NE(r.out.find("sub"), std::string::npos);
  }
  EXPECT_EQ(cli({"mv", "/data", "/sub/data"}).code, 0);
  EXPECT_EQ(cli({"rm", "/sub/data"}).code, 0);
  EXPECT_EQ(cli({"rmdir", "/sub"}).code, 0);
  // Reads of removed paths fail with a diagnostic.
  const auto gone = cli({"get", "/sub/data"});
  EXPECT_EQ(gone.code, 1);
  EXPECT_NE(gone.out.find("error:"), std::string::npos);
  EXPECT_EQ(cli({"put", "/x", dir_ + "/does-not-exist"}).code, 1);
}

TEST_F(CliTest, LotLifecycle) {
  const auto created = cli({"lot-create", "1000", "600"});
  ASSERT_EQ(created.code, 0) << created.out;
  const std::uint64_t id = std::strtoull(created.out.c_str(), nullptr, 10);
  ASSERT_GT(id, 0u);
  {
    const auto r = cli({"lot-query", std::to_string(id)});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("owner=alice"), std::string::npos) << r.out;
  }
  {
    const auto r = cli({"lot-list"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("id=" + std::to_string(id)), std::string::npos)
        << r.out;
  }
  EXPECT_EQ(cli({"lot-renew", std::to_string(id), "1200"}).code, 0);
  EXPECT_EQ(cli({"lot-terminate", std::to_string(id)}).code, 0);
  EXPECT_EQ(cli({"lot-query", std::to_string(id)}).code, 1);
}

TEST_F(CliTest, AclWorkflow) {
  const auto set = cli({"acl-set", "/",
                        "[ Principal = \"user:bob\"; Rights = \"rl\"; ]"});
  ASSERT_EQ(set.code, 0) << set.out;
  {
    const auto r = cli({"acl-get", "/"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("user:bob"), std::string::npos) << r.out;
  }
  EXPECT_EQ(cli({"acl-clear", "/", "user:bob"}).code, 0);
  {
    const auto r = cli({"acl-get", "/"});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out.find("user:bob"), std::string::npos) << r.out;
  }
}

TEST_F(CliTest, AdminQueries) {
  {
    const auto r = cli({"journal-stat"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("last_lsn="), std::string::npos) << r.out;
  }
  {
    const auto r = cli({"stats"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("\"storage\""), std::string::npos) << r.out;
  }
  {
    const auto r = cli({"ad"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("Name"), std::string::npos) << r.out;
  }
}

TEST_F(CliTest, FaultOpsRequireSuperuser) {
  // Non-superuser is refused.
  const auto denied = cli({"fault-set", "test.cli", "return(EIO)"});
  EXPECT_EQ(denied.code, 1);
  EXPECT_NE(denied.out.find("error:"), std::string::npos);
  EXPECT_EQ(cli({"fault-list"}).code, 1);

  // Superuser arms, lists, and disarms (the server runs in-process, so the
  // registry state is directly observable).
  EXPECT_EQ(cli_as("root", "root-secret",
                   {"fault-set", "test.cli", "return(EIO)"})
                .code,
            0);
  EXPECT_TRUE(fault::registry().point("test.cli").armed());
  {
    const auto r = cli_as("root", "root-secret", {"fault-list"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("test.cli return(EIO)"), std::string::npos) << r.out;
  }
  EXPECT_EQ(cli_as("root", "root-secret", {"fault-set", "test.cli", "off"})
                .code,
            0);
  EXPECT_FALSE(fault::registry().point("test.cli").armed());
  // Malformed specs are rejected over the wire.
  EXPECT_EQ(cli_as("root", "root-secret", {"fault-set", "test.cli", "zap"})
                .code,
            1);
}

TEST_F(CliTest, ClusterCommands) {
  // The fixture server is not clustered: the cluster surfaces fail with a
  // diagnostic, not a crash.
  {
    const auto r = cli({"cluster-status"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("not clustered"), std::string::npos) << r.out;
  }
  EXPECT_EQ(cli({"replica-list"}).code, 1);

  // Arity and numeric validation exit 2 (usage), like every other family.
  EXPECT_EQ(cli({"cluster-status", "extra"}).code, 2);
  EXPECT_EQ(cli({"replica-list", "/a", "/b"}).code, 2);
  EXPECT_EQ(cli({"lot-replicas", "1"}).code, 2);
  EXPECT_EQ(cli({"lot-replicas", "one", "2"}).code, 2);

  // lot-replicas is journaled storage state and works unclustered: the
  // policy is set ahead of federating the node.
  const auto created = cli({"lot-create", "1000", "600"});
  ASSERT_EQ(created.code, 0) << created.out;
  const std::string id =
      std::to_string(std::strtoull(created.out.c_str(), nullptr, 10));
  EXPECT_EQ(cli({"lot-replicas", id, "2"}).code, 0);
  {
    const auto r = cli({"lot-query", id});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("replicas=2"), std::string::npos) << r.out;
  }
  // Unknown lot fails over the wire with an error, not usage.
  EXPECT_EQ(cli({"lot-replicas", "999999", "2"}).code, 1);

  // Against a clustered node the status surfaces render: one self line
  // and a row for the (unreachable, hence dead) configured peer.
  server::NestServerOptions opts;
  opts.name = "cli-p";
  opts.http_port = opts.ftp_port = opts.gridftp_port = opts.nfs_port = -1;
  opts.cluster.role = cluster::Role::primary;
  opts.cluster.peers.push_back(cluster::PeerAddress{"ghost", "127.0.0.1", 1});
  auto clustered = server::NestServer::start(opts);
  ASSERT_TRUE(clustered.ok()) << clustered.error().to_string();
  (*clustered)->gsi().add_user("alice", "alice-secret", {"physics"});
  {
    const auto r = cli_at((*clustered)->chirp_port(), "alice", "alice-secret",
                          {"cluster-status"});
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("self name=cli-p role=primary"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("peer name=ghost"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("alive=0"), std::string::npos) << r.out;
  }
  {
    // No live peers: an empty (but successful) replica list.
    const auto r = cli_at((*clustered)->chirp_port(), "alice", "alice-secret",
                          {"replica-list", "/any"});
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_EQ(r.out.find("name="), std::string::npos) << r.out;
  }
  (*clustered)->stop();
}

}  // namespace
}  // namespace nest
