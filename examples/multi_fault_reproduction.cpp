// Iterative multi-fault reproduction (paper §3/§6).
//
// ANDURIL injects one fault per run, so a failure requiring two causally
// independent faults is out of reach for a single search. The paper's
// workflow — fix the most promising fault into the workload, re-run ANDURIL —
// is automated by ChainExplorer's independent policy. This example builds a replicated queue
// whose data-loss symptom needs BOTH a primary disk fault AND a backup
// network fault (either alone is tolerated), and reproduces it in two phases.

#include <cstdio>

#include "src/explorer/iterative.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"

using namespace anduril;

namespace {

void BuildQueue(ir::Program* program) {
  program->DefineException("IOException");
  program->DefineException("SocketException", "IOException");

  // Primary: persists entries locally AND mirrors them to the backup.
  // Losing only one copy is tolerated; losing both loses data.
  ir::MethodBuilder enqueue(program, "queue.enqueue");
  enqueue.TryCatch(
      [&] {
        enqueue.External("queue.disk.persist", {"IOException"});
        enqueue.Assign("persisted", enqueue.Plus("persisted", 1));
      },
      {{"IOException",
        [&] {
          enqueue.LogExc(ir::LogLevel::kWarn, "queue", "Local persist failed, relying on mirror");
          enqueue.Assign("localMisses", enqueue.Plus("localMisses", 1));
        }}});
  enqueue.Send("queue.mirror", "backup", ir::SendOpts{.payload = ir::Expr::Payload()});
  enqueue.Build();

  ir::MethodBuilder mirror(program, "queue.mirror");
  mirror.TryCatch(
      [&] {
        mirror.External("queue.net.replicate", {"SocketException"});
        mirror.Assign("mirrored", mirror.Plus("mirrored", 1));
      },
      {{"SocketException",
        [&] {
          mirror.LogExc(ir::LogLevel::kWarn, "queue", "Mirror replication failed");
          mirror.Send("queue.report_miss", "primary");
        }}});
  mirror.Build();

  ir::MethodBuilder report(program, "queue.report_miss");
  report.Assign("mirrorMisses", report.Plus("mirrorMisses", 1));
  report.Build();

  ir::MethodBuilder audit(program, "queue.audit");
  audit.Sleep(400);
  // Entry i is lost iff both its local persist and its mirror failed; the
  // audit approximates that by cross-checking the two miss counters against
  // the mirrored total (both > 0 and mirrored < enqueued - localMisses + ...).
  audit.If(
      ir::Cond::Gt(audit.Var("localMisses"), 0),
      [&] {
        audit.If(ir::Cond::Gt(audit.Var("mirrorMisses"), 0), [&] {
          audit.Log(ir::LogLevel::kError, "queue",
                    "DATA LOSS: entry missing from both disk and mirror");
        });
      });
  audit.Build();

  ir::MethodBuilder client(program, "queue.client");
  client.While(client.Lt("sent", 12), [&] {
    client.Assign("sent", client.Plus("sent", 1));
    client.Send("queue.enqueue", "primary", ir::SendOpts{.payload = client.V("sent")});
    client.Sleep(6);
  });
  client.Build();
}

}  // namespace

int main() {
  ir::Program program;
  BuildQueue(&program);
  program.Finalize();

  interp::ClusterSpec cluster;
  cluster.AddNode("primary");
  cluster.AddNode("backup");
  cluster.AddNode("client");
  cluster.AddTask("client", "producer", program.FindMethod("queue.client"));
  cluster.AddTask("primary", "Auditor", program.FindMethod("queue.audit"));

  // Fabricate the production incident: disk fault on entry 5 AND network
  // fault on the mirror of the same window.
  ir::FaultSiteId disk = ir::kInvalidId;
  ir::FaultSiteId net = ir::kInvalidId;
  for (const ir::FaultSite& site : program.fault_sites()) {
    if (site.name.find("queue.disk.persist") == 0) {
      disk = site.id;
    }
    if (site.name.find("queue.net.replicate") == 0) {
      net = site.id;
    }
  }
  interp::FaultRuntime production(&program);
  production.SetPinned(
      {interp::InjectionCandidate{disk, 5, program.FindException("IOException")}});
  production.SetWindow(
      {interp::InjectionCandidate{net, 5, program.FindException("SocketException")}});
  interp::Simulator sim(&program, &cluster, 31337, &production);
  interp::RunResult incident = sim.Run();

  explorer::ExperimentSpec spec;
  spec.program = &program;
  spec.cluster = &cluster;
  spec.failure_log_text = interp::FormatLogFile(incident.log);
  spec.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kError, "DATA LOSS");
  };
  std::printf("--- production failure log ---\n%s\n", spec.failure_log_text.c_str());

  // A single-fault search cannot reproduce this.
  explorer::ExplorerOptions options;
  options.max_rounds = 200;
  {
    explorer::Explorer single(spec, options);
    auto strategy = explorer::MakeFullFeedbackStrategy();
    auto result = single.Explore(strategy.get());
    std::printf("single-fault search: %s after %d rounds\n",
                result.reproduced ? "reproduced (unexpected!)" : "NOT reproduced",
                result.rounds);
  }

  // The iterative mode pins the closest fault and searches again.
  explorer::ChainExplorer iterative(spec, options,
                                    explorer::ChainExplorer::Policy::kIndependent);
  explorer::ChainResult result = iterative.Explore(/*max_chain_length=*/2);
  if (!result.reproduced) {
    std::printf("iterative search failed\n");
    return 1;
  }
  std::printf("\niterative search reproduced the failure in %d phases, %d total rounds:\n%s",
              result.phases, result.total_rounds, result.chain.ToText(program).c_str());
  const bool deterministic = explorer::ChainExplorer::Replay(spec, result);
  std::printf("multi-fault replay: %s\n", deterministic ? "deterministic" : "FLAKY");
  return deterministic ? 0 : 1;
}
