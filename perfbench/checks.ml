(* Output checks of one cluster run: every attempted client request must
   be accounted for exactly once, as a cache hit, a CGI execution, a file
   fetch or a failure.

   Server-side, each arrival at a node ([requests]) ends in exactly one of
   hit_local, hit_remote, cgi_execs, file_fetches, not_found or
   rejected_down (a 503 from a crashed node). A router resubmits a 503 to a
   survivor, so client-side attempts are [requests - router_retries].
   Failures are the non-200 answers the client kept — 404s, failed CGIs
   and 503s that were not retried — plus requests that never completed. *)

module K = Swala.Server.K

type accounting = {
  attempted : int;
  completed : int;
  hits : int;
  execs : int;  (** successful CGI executions *)
  files : int;
  failures : int;
}

let account ~attempted ~completed counters =
  let get = Metrics.Counter.get counters in
  {
    attempted;
    completed;
    hits = get K.hit_local + get K.hit_remote;
    execs = get K.cgi_execs - get K.cgi_failures;
    files = get K.file_fetches;
    failures =
      get K.not_found + get K.cgi_failures + get K.rejected_down
      - get K.router_retries
      + (attempted - completed);
  }

(* The violated invariants, by name; empty when the run checks out. *)
let violations ~attempted ~completed counters =
  let get = Metrics.Counter.get counters in
  let a = account ~attempted ~completed counters in
  let arrivals = get K.requests in
  let ended =
    get K.hit_local + get K.hit_remote + get K.cgi_execs + get K.file_fetches
    + get K.not_found + get K.rejected_down
  in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (completed = attempted, "responses <> attempted requests");
      (arrivals = ended, "node arrivals <> hits + execs + files + 404 + 503");
      ( arrivals - get K.router_retries = attempted,
        "arrivals - router retries <> attempted requests" );
      (get K.rejected_down >= get K.router_retries, "more retries than 503s");
      ( a.hits + a.execs + a.files + a.failures = attempted,
        "hits + execs + files + failures <> attempted requests" );
    ]
