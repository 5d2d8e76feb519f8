// Quickstart: reproduce a fault-induced failure in a tiny two-node system.
//
// The flow mirrors the paper's workflow end to end:
//   1. Write the target system in the anduril IR (normally you'd model an
//      existing system; here it is a 40-line key-value store).
//   2. Produce a "production" failure log (here: by injecting a known fault,
//      standing in for the real incident).
//   3. Hand ANDURIL the system, a workload, the failure log, and an oracle.
//   4. ANDURIL searches the fault space and prints the reproduction script.

#include <cstdio>

#include "src/explorer/explorer.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"

using namespace anduril;

namespace {

// A primary/replica store: writes go to the primary's disk log, then
// replicate. A disk fault during log append is caught — but the buggy
// handler drops the write without telling the client.
void BuildStore(ir::Program* program) {
  program->DefineException("IOException");
  program->DefineException("TimeoutException");

  ir::MethodBuilder put(program, "store.handle_put");
  put.TryCatch(
      [&] {
        put.External("store.disk.append", {"IOException"});
        put.Assign("committed", put.Plus("committed", 1));
        put.Log(ir::LogLevel::kInfo, "store", "Committed write {}", {ir::Expr::Payload()});
        put.Send("store.replica_apply", "replica", ir::SendOpts{.payload = ir::Expr::Payload()});
        put.Send("store.client_ack", "client");
      },
      {{"IOException",
        [&] {
          // BUG: the write is dropped silently; the client never hears back.
          put.LogExc(ir::LogLevel::kWarn, "store", "Disk append failed, dropping write");
        }}});
  put.Build();

  ir::MethodBuilder apply(program, "store.replica_apply");
  apply.Assign("replicated", apply.Plus("replicated", 1));
  apply.Build();

  ir::MethodBuilder ack(program, "store.client_ack");
  ack.Assign("acks", ack.Plus("acks", 1));
  ack.Signal("acks");
  ack.Build();

  ir::MethodBuilder client(program, "store.client");
  client.While(client.Lt("sent", 10), [&] {
    client.Assign("sent", client.Plus("sent", 1));
    client.Send("store.handle_put", "primary", ir::SendOpts{.payload = client.V("sent")});
    client.Sleep(5);
  });
  client.Await(client.Ge("acks", 10), /*timeout_ms=*/5000);
  client.If(
      client.Lt("acks", 10),
      [&] {
        client.Log(ir::LogLevel::kError, "store.client", "Write lost: only {} of 10 acked",
                   {client.V("acks")});
      },
      [&] { client.Log(ir::LogLevel::kInfo, "store.client", "All writes acknowledged"); });
  client.Build();
}

interp::ClusterSpec MakeCluster(ir::Program* program) {
  interp::ClusterSpec cluster;
  cluster.AddNode("primary");
  cluster.AddNode("replica");
  cluster.AddNode("client");
  cluster.AddTask("client", "main", program->FindMethod("store.client"));
  return cluster;
}

}  // namespace

int main() {
  ir::Program program;
  BuildStore(&program);
  program.Finalize();
  interp::ClusterSpec cluster = MakeCluster(&program);

  // --- Step 2: fabricate the production failure log -------------------------
  // (Stands in for the log file a user would attach to the bug report.)
  ir::FaultSiteId disk_site = ir::kInvalidId;
  for (const ir::FaultSite& site : program.fault_sites()) {
    if (site.name.find("store.disk.append") == 0) {
      disk_site = site.id;
    }
  }
  interp::FaultRuntime production_runtime(&program);
  production_runtime.SetWindow(
      {interp::InjectionCandidate{disk_site, 4, program.FindException("IOException")}});
  interp::Simulator production(&program, &cluster, /*seed=*/424242, &production_runtime);
  interp::RunResult incident = production.Run();
  std::string failure_log = interp::FormatLogFile(incident.log);
  std::printf("--- production failure log ---\n%s\n", failure_log.c_str());

  // --- Step 3: hand everything to ANDURIL -----------------------------------
  explorer::ExperimentSpec spec;
  spec.program = &program;
  spec.cluster = &cluster;
  spec.failure_log_text = failure_log;
  spec.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kError, "Write lost");
  };

  explorer::ExplorerOptions options;
  explorer::Explorer anduril_explorer(spec, options);
  auto strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult result = anduril_explorer.Explore(strategy.get());

  // --- Step 4: report --------------------------------------------------------
  if (!result.reproduced) {
    std::printf("failure NOT reproduced within %d rounds\n", options.max_rounds);
    return 1;
  }
  std::printf("failure reproduced in %d round(s)\n", result.rounds);
  std::printf("reproduction script: %s\n", result.script->ToText(program).c_str());
  const bool deterministic = explorer::Explorer::Replay(spec, *result.script);
  std::printf("replay check: %s\n", deterministic ? "deterministic" : "FLAKY");
  return deterministic ? 0 : 1;
}
