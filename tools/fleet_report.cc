/**
 * @file
 * fleet_report — render the fleet observability report from the
 * JSONL that FleetSim::reportJsonl() (or `bench_fleet --timeline`)
 * writes.
 *
 *     fleet_report --in fleet.jsonl            # human table
 *     fleet_report --in fleet.jsonl --top 10   # deeper drill-down
 *     fleet_report --in fleet.jsonl --json     # machine-readable
 *
 * The input is one JSON object per line, three kinds:
 *
 *   {"kind":"decision", ...}  one scheduler decision (admit /
 *                             backfill / preempt) with its inputs
 *                             and one-line explanation, in event
 *                             order;
 *   {"kind":"job", ...}       one job's attribution record (JCT,
 *                             per-category seconds, dominant
 *                             category);
 *   {"kind":"summary", ...}   fleet totals (jobs, completed,
 *                             makespan, admissions / backfills /
 *                             preemptions) and the decision-stream
 *                             fingerprint.
 *
 * The tool rebuilds the fleet-wide "where did fleet time go"
 * roll-up from the job records (per class, per priority, TOTAL row)
 * and prints it, under a header line echoing the summary's totals,
 * with a Top-K worst-JCT drill-down naming each straggler's dominant
 * category; `--json` emits the same roll-up as one JSON object.
 * Exit status 1 on unreadable input or a log with no job records.
 *
 * Options:
 *   --in FILE   report JSONL to read (required)
 *   --top K     worst-JCT drill-down depth (default 5)
 *   --json      emit JSON instead of the table
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "base/args.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "obs/fleet_trace.hh"

using namespace mobius;

namespace
{

/** Pull one attribution record out of a {"kind":"job"} line. */
FleetJobAttribution
parseJob(const json::JsonValue &doc)
{
    FleetJobAttribution ja;
    ja.job = static_cast<int>(doc.numberOr("job", -1));
    ja.name = doc.stringOr("name", strfmt("job%d", ja.job));
    ja.klass = doc.stringOr("class", "?");
    ja.priority = static_cast<int>(doc.numberOr("priority", 0));
    ja.jct = doc.numberOr("jct", 0.0);
    ja.preemptions =
        static_cast<int>(doc.numberOr("preemptions", 0));
    const json::JsonValue *b = doc.find("breakdown");
    if (!b || !b->isObject())
        fatal("job record %d has no breakdown object", ja.job);
    ja.t.jobs = 1;
    ja.t.queueWait = b->numberOr("queue_wait", 0.0);
    ja.t.compute = b->numberOr("compute", 0.0);
    ja.t.transfer = b->numberOr("transfer", 0.0);
    ja.t.contention = b->numberOr("contention", 0.0);
    ja.t.optimizer = b->numberOr("optimizer", 0.0);
    ja.t.fault = b->numberOr("fault", 0.0);
    ja.t.bubble = b->numberOr("bubble", 0.0);
    ja.t.other = b->numberOr("other", 0.0);
    ja.t.preemptionLost = b->numberOr("preemption_lost", 0.0);
    return ja;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        std::string in = args.get("in", "");
        int top = args.getIntIn("top", 5, 0, 1000000);
        bool as_json = args.has("json");
        args.rejectUnused();
        if (in.empty())
            fatal("--in FILE is required (the report JSONL "
                  "FleetSim::reportJsonl() writes)");

        std::ifstream is(in);
        if (!is)
            fatal("cannot open '%s'", in.c_str());

        FleetAttribution attribution;
        std::map<std::string, std::uint64_t> decisionKinds;
        bool haveSummary = false;
        json::JsonValue summary;
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(is, line)) {
            ++lineno;
            if (line.empty())
                continue;
            json::JsonValue doc;
            try {
                doc = json::parse(line);
            } catch (const json::JsonError &e) {
                fatal("%s:%zu: %s", in.c_str(), lineno, e.what());
            }
            std::string kind = doc.stringOr("kind", "");
            if (kind == "decision") {
                ++decisionKinds[doc.stringOr("type", "?")];
            } else if (kind == "job") {
                attribution.add(parseJob(doc));
            } else if (kind == "summary") {
                summary = std::move(doc);
                haveSummary = true;
            } else {
                fatal("%s:%zu: unknown record kind '%s'",
                      in.c_str(), lineno, kind.c_str());
            }
        }
        if (attribution.jobs.empty())
            fatal("'%s' holds no job records — was the fleet run "
                  "with tracing enabled?",
                  in.c_str());

        if (as_json) {
            std::ostringstream os;
            os << "{\"report\":"
               << fleetAttributionJson(attribution, top)
               << ",\"decisions\":{";
            bool first = true;
            for (const auto &[kind, count] : decisionKinds) {
                os << (first ? "" : ",") << "\""
                   << json::escape(kind) << "\":" << count;
                first = false;
            }
            os << "}}";
            std::printf("%s\n", os.str().c_str());
            return 0;
        }

        if (haveSummary)
            std::printf(
                "fleet: %d jobs, %d completed, makespan %.3fs, "
                "%d admissions / %d backfills / %d preemptions, "
                "decision fp %s\n\n",
                static_cast<int>(summary.numberOr("jobs", 0)),
                static_cast<int>(summary.numberOr("completed", 0)),
                summary.numberOr("makespan", 0.0),
                static_cast<int>(summary.numberOr("admissions", 0)),
                static_cast<int>(summary.numberOr("backfills", 0)),
                static_cast<int>(
                    summary.numberOr("preemptions", 0)),
                summary.stringOr("decision_fingerprint", "?")
                    .c_str());
        std::printf("%s",
                    fleetAttributionTable(attribution, top)
                        .c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
