(* The repository benchmark's load generator.

   It starts the real server ([dbpl serve --listen unix:SOCK], durable
   with [--data] on ingest) as a separate process, drives one seeded
   workload at it over the wire protocol with [Net.Client] from this one
   process (at most two connections, one thread each), checks every
   answer against a reference computed independently before the
   measured phase, and prints its measurements.  perfbench/run.py
   builds it, passes the workload parameters from perfbench/spec.json,
   and formats the result line; see that file for usage.

   Untraced runs (--trace 0) report the end-to-end metrics.  A traced
   run (--trace 1) repeats the wire run against a server started with
   DC_METRICS=1, reads the server's instruments through SHOW METRICS
   (the writer-queue gauge from a sampler on a third connection),
   replays the workload's statements in-process with a span around every
   call into a layer, and reports the per-layer metrics plus the tracing
   overhead (traced vs untraced end-to-end numbers of the same
   invocation, one pair: indicative only). *)

open Dc_relation
open Dc_workload
module Net = Dc_net.Net
module Client = Net.Client
module Wire = Dc_net.Wire
module Obs = Dc_obs.Obs

let now = Unix.gettimeofday
let say fmt = Fmt.pr ("# " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let server_exe = ref ""
let run_dir = ref ".bench_run"
let params : Gen.params ref = ref []
let inject_wrong = ref false
let spans_file = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time the phases are sized for");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 traced run");
      ("--server", Arg.Set_string server_exe, "PATH dbpl executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory (sockets, data)");
      ( "--param",
        Arg.String
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i ->
              params :=
                (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
                :: !params
            | None -> raise (Arg.Bad ("--param expects key=value: " ^ kv))),
        "KEY=VALUE workload parameter" );
      ("--spans", Arg.Set_string spans_file, "FILE where a traced run writes its spans");
      ( "--inject-wrong-answer",
        Arg.Set inject_wrong,
        " drop one row of the first answer before checking it (tests the checker)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dcbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH";
  if !server_exe = "" || !workload = "" then begin
    prerr_endline "dcbench: --workload and --server are required";
    exit 2
  end

let p_int k = Gen.int_param !params k
let p_float k = Gen.float_param !params k

(* The same for every workload *)
let setups = 41 (* spawn-to-first-answer set-ups per pass; setup_s is their median *)
let open_frac = 0.6 (* serve and ingest: share of the measured time spent open loop *)
let restarts_per_point = 3 (* ingest: timed restarts at the end of each segment *)

(* The percentile reported for repeated CPU-bound operations (closure
   queries, serve reads, ingest commits and restarts), and its mirror
   for closed-loop rates.  On a shared two-core host, speed switches
   every few milliseconds between a fast mode and one about 1.5 times
   slower, in proportions that drift over minutes; a median follows that
   drift (IQR/median over five to ten seeds up to 0.2 on closure and
   serve reads, 0.28 on ingest commits) where the 10th percentile of
   operations of 3 to 45 ms tracks the fast mode (0.05 to 0.13 on
   closure, 0.07 on serve reads, two sets of ten seeds). *)
let fast_pct = 10.
let replay_rounds = 2 (* traced closure replay: passes over the query classes *)

(* ------------------------------------------------------------------ *)
(* Outcome accounting *)

(* Errors, timeouts and wrong answers are failed operations; a run with
   any is not correct and exits nonzero. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0

let fail_op fmt =
  Fmt.kstr
    (fun msg ->
      Atomic.incr failed;
      Fmt.epr "dcbench: failed: %s@." msg)
    fmt

let wrong_answer fmt = fail_op ("wrong answer: " ^^ fmt)

(* one operation against the server: counted, errors are failures *)
let op what f =
  Atomic.incr attempted;
  match f () with
  | v -> Some v
  | exception (Client.Remote (code, msg)) ->
    fail_op "%s: %a error: %s" what Wire.pp_error_code code msg;
    None
  | exception Net.Timeout ->
    fail_op "%s: timed out" what;
    None
  | exception (Unix.Unix_error (e, _, _)) ->
    fail_op "%s: %s" what (Unix.error_message e);
    None

let first_answer = ref true

let check_rows what expect tuples =
  let got = Gen.canon_tuples tuples in
  let got =
    if !inject_wrong && !first_answer && Array.length got > 0 then
      Array.sub got 1 (Array.length got - 1)
    else got
  in
  first_answer := false;
  if got <> expect then
    wrong_answer "%s: %d rows, reference has %d" what (Array.length got)
      (Array.length expect)


(* ------------------------------------------------------------------ *)
(* Statistics *)

(* nearest-rank percentile *)
let pct p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median l = pct 50. l

(* ------------------------------------------------------------------ *)
(* Server processes *)

type server = {
  pid : int;
  addr : Net.addr;
  data : string option;
  mutable alive : bool;
}

let live : server list ref = ref []

let base_env =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"DC_DOMAINS=" kv
           || String.starts_with ~prefix:"DC_METRICS=" kv))

let spawn_count = ref 0

let spawn ~metrics ?data () =
  incr spawn_count;
  let tag = Fmt.str "srv%d" !spawn_count in
  let sock = Filename.concat !run_dir (tag ^ ".sock") in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat !run_dir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let env =
    Array.of_list
      ((Fmt.str "DC_DOMAINS=%d" (p_int "dc_domains")
       :: (if metrics then [ "DC_METRICS=1" ] else []))
      @ base_env)
  in
  let args =
    [ !server_exe; "serve"; "--listen"; "unix:" ^ sock ]
    @ match data with Some d -> [ "--data"; d ] | None -> []
  in
  let pid =
    Unix.create_process_env !server_exe (Array.of_list args) env Unix.stdin log log
  in
  Unix.close log;
  let s = { pid; addr = Net.Unix_sock sock; data; alive = true } in
  live := s :: !live;
  s

let reap s =
  if s.alive then begin
    ignore (Unix.waitpid [] s.pid);
    s.alive <- false;
    live := List.filter (fun x -> x != s) !live
  end

let kill s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap s
  end

(* graceful stop: the server drains its writer and checkpoints *)
let stop s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap s
  end

let () = at_exit (fun () -> List.iter kill !live)

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
    s.alive <- false;
    true

(* connect once the server listens (after loading or recovering) *)
let connect s =
  let deadline = now () +. 120. in
  let rec go () =
    match Client.connect ~timeout:120. s.addr with
    | c -> c
    | exception (Unix.Unix_error _ | Dc_net.Wire.Protocol_error _) ->
      if exited s then failwith "server exited before listening"
      else if now () > deadline then failwith "server did not start listening"
      else begin
        Unix.sleepf 0.0005;
        go ()
      end
  in
  go ()

let peak_rss_mb s =
  let ic = open_in (Fmt.str "/proc/%d/status" s.pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Server instruments (Prometheus text from SHOW METRICS) *)

type sample = { m_name : string; m_labels : string; m_value : float }

let parse_metrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some sp -> (
             let key = String.sub line 0 sp in
             let v = String.sub line (sp + 1) (String.length line - sp - 1) in
             let name, labels =
               match String.index_opt key '{' with
               | Some b -> (String.sub key 0 b, String.sub key b (String.length key - b))
               | None -> (key, "")
             in
             match float_of_string_opt v with
             | Some f -> Some { m_name = name; m_labels = labels; m_value = f }
             | None -> None))

let fetch_metrics c = parse_metrics (Client.metrics c `Text)

(* total of [name] over label sets containing [having] *)
let total ?(having = "") samples name =
  List.fold_left
    (fun acc s ->
      let rec contains i =
        i + String.length having <= String.length s.m_labels
        && (String.sub s.m_labels i (String.length having) = having || contains (i + 1))
      in
      if s.m_name = name && (having = "" || contains 0) then acc +. s.m_value else acc)
    0. samples

(* [after - before] for every instrument [name] *)
let delta ?having before after name =
  total ?having after name -. total ?having before name

let hist_mean ?having before after name =
  let n = delta ?having before after (name ^ "_count") in
  if n <= 0. then 0. else delta ?having before after (name ^ "_sum") /. n

(* ------------------------------------------------------------------ *)
(* Set-up: spawn, load the catalog and the workload's data, answer a
   first request.  [setups] of them per pass: half before the measured
   phases, the last of which stays up for them, and the rest after, when
   [setup_s] is called, so that their median samples both ends of the
   run rather than one stretch of it. *)

type setup = { srv : server; conn : Client.t; setup_s : unit -> float }

let set_up ~metrics ~data_src ~fresh_data =
  let once k =
    let data = Option.map (fun f -> f k) fresh_data in
    let t0 = now () in
    let srv = spawn ~metrics ?data () in
    let c = connect srv in
    ignore (Client.exec c Gen.catalog_src);
    ignore (Client.exec c data_src);
    ignore (Client.snapshot c);
    (srv, c, now () -. t0)
  in
  let discard k =
    let srv, c, dt = once k in
    Client.close c;
    kill srv;
    dt
  in
  let n_before = (setups / 2) + 1 in
  let first = List.init (n_before - 1) (fun k -> discard (k + 1)) in
  let srv, conn, dt = once n_before in
  let setup_s () =
    let rest = List.init (setups - n_before) (fun k -> discard (n_before + 1 + k)) in
    median ((dt :: first) @ rest)
  in
  { srv; conn; setup_s }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec loop () =
        let n = input ic buf 0 65536 in
        if n > 0 then begin
          output oc buf 0 n;
          loop ()
        end
      in
      loop ())

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* Results of one pass over the wire *)

(* Every workload reports the same end-to-end metrics: setup_s,
   op_p10_ms (the fast-mode latency of the workload's operation: a
   closure query, the geometric mean over the classes of each class's
   10th percentile; a serve read; an ingest write request),
   ops_per_s (closed-loop throughput in the same operations, where a
   serve operation is a read or a write) and peak_rss_mb. *)
type pass = {
  e2e : (string * float) list;  (** end-to-end metrics *)
  layers : (string * float) list;  (** per-layer metrics from the server *)
}

(* Traced passes only: sample the writer-queue gauge every 20 ms from a
   connection and thread of their own, so the measured connections send
   nothing but the workload.  The returned function stops the sampler
   and gives its samples. *)
let poll_queue srv =
  let c = connect srv in
  let stop = Atomic.make false and samples = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match fetch_metrics c with
          | m -> samples := total m "dc_server_queue_depth" :: !samples
          | exception _ -> ());
          Unix.sleepf 0.02
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    Client.close c;
    !samples

let server_layers ?(queue = []) ~before ~after () =
  let d = delta before after and hm = hist_mean before after in
  let updates = d "dc_ivm_updates_total" in
  let over = d "dc_ivm_overdeleted_total" in
  [
    ("datalog.rounds", d "dc_datalog_rounds_total");
    ("datalog.round_ms", d "dc_datalog_round_ms_sum");
    ("ivm.maintain_ms", hm "dc_ivm_maintain_ms");
    ("ivm.delta_in", hm "dc_ivm_delta_in");
    ("ivm.probes", if updates > 0. then d "dc_ivm_probes_total" /. updates else 0.);
    ("ivm.rederive_ratio", if over > 0. then d "dc_ivm_rederived_total" /. over else 0.);
    ("server.read_ms", hist_mean ~having:"kind=\"read\"" before after "dc_server_statement_ms");
    ("server.write_ms", hist_mean ~having:"kind=\"write\"" before after "dc_server_statement_ms");
    ("server.queue_depth", Trace.mean queue);
    ("wal.fsync_ms", hm "dc_wal_fsync_ms");
    ("wal.group_size", hm "dc_wal_group_size");
    ("wal.checkpoints", d "dc_wal_checkpoint_ms_count");
    ("wal.checkpoint_ms", hm "dc_wal_checkpoint_ms");
    ("wal.bytes_per_commit", 0.);
    ("wal.recovered_records", 0.);
    ("wal.replay_ms_per_record", 0.);
    ("wal.recovery_s", 0.);
  ]

(* [base] with the values of [extra] where both name a metric *)
let override base extra =
  List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k extra) ~default:v)) base

(* ------------------------------------------------------------------ *)
(* closure / closure_par: closed loop, one connection, the query classes
   round-robin. *)

let closure_rounds () =
  max 3 (int_of_float (Float.ceil (!seconds *. p_float "rounds_per_s")))

let closure_pass ~metrics ~data_src ~classes =
  let st = set_up ~metrics ~data_src ~fresh_data:None in
  let c = st.conn in
  let lat = Hashtbl.create 8 in
  let ask (qc : Gen.query_class) =
    let t0 = now () in
    match op qc.qc_name (fun () -> Client.query c qc.qc_src) with
    | Some (_, _, tuples) ->
      let dt = now () -. t0 in
      check_rows qc.qc_name qc.qc_expect tuples;
      Some dt
    | None -> None
  in
  (* one unmeasured pass: every class answered and checked once *)
  List.iter (fun qc -> ignore (ask qc)) classes;
  let before = if metrics then fetch_metrics c else [] in
  let n_classes = float_of_int (List.length classes) in
  let round_rates = ref [] in
  for _ = 1 to closure_rounds () do
    let r0 = now () in
    let all_ok = ref true in
    List.iter
      (fun (qc : Gen.query_class) ->
        (* a failed query counts as infinitely slow *)
        let ms =
          match ask qc with
          | Some dt -> dt *. 1000.
          | None ->
            all_ok := false;
            infinity
        in
        Hashtbl.replace lat qc.qc_name
          (ms :: Option.value (Hashtbl.find_opt lat qc.qc_name) ~default:[]))
      classes;
    (* a round with a failed query adds nothing to the rate *)
    let rate = if !all_ok then n_classes /. (now () -. r0) else 0. in
    round_rates := rate :: !round_rates
  done;
  let after = if metrics then fetch_metrics c else [] in
  let rss = peak_rss_mb st.srv in
  Client.close c;
  kill st.srv;
  let lat (qc : Gen.query_class) = Option.value (Hashtbl.find_opt lat qc.qc_name) ~default:[] in
  List.iter
    (fun (qc : Gen.query_class) ->
      let l = lat qc in
      say "%-10s latency ms over %d queries: p10 %.3f p50 %.3f max %.3f" qc.qc_name
        (List.length l) (pct 10. l) (median l) (pct 100. l))
    classes;
  (* every class weighs the same in the geometric mean, so a class's
     relative change moves op_p10_ms whatever its absolute cost *)
  let log_sum =
    List.fold_left (fun a qc -> a +. Float.log (pct fast_pct (lat qc))) 0. classes
  in
  {
    e2e =
      [
        ("setup_s", st.setup_s ());
        ("op_p10_ms", Float.exp (log_sum /. n_classes));
        ("ops_per_s", pct (100. -. fast_pct) !round_rates);
        ("peak_rss_mb", rss);
      ];
    layers = (if metrics then server_layers ~before ~after () else []);
  }

(* ------------------------------------------------------------------ *)
(* Open loop then closed-loop saturation on two connections, in
   [segments] alternating segments so that both kinds of measurement
   sample the whole run; [between k] runs, untimed, after segment k.
   [step c i] performs connection c's i-th
   operation and returns (is a read?, succeeded?).  Open-loop latencies
   are timed from each request's due time; a failed request counts as
   infinitely slow, so it misses every latency limit.  Saturation counts
   only the operations that succeeded: the closed slices' completions
   are cut into windows of [window_ops], and the rate is the
   (100 - fast_pct)th percentile of the window rates. *)

type loop_result = {
  reads : float list;  (** ms, open loop *)
  writes : float list;  (** ms, open loop *)
  late : float list;  (** ms the generator sent after the due time *)
  sat_ops : int;  (** closed-loop operations that succeeded *)
  sat_rate : float;  (** operations per second, closed loop *)
}

let segments = 3
let window_ops = 20

let two_phase ?(between = ignore) ~conns ~rate ~n_open ~n_closed ~step () =
  let reads = ref [] and writes = ref [] and late = ref [] and sat_ok = ref 0 in
  let m = Mutex.create () in
  let n_conn = Array.length conns in
  let next = Array.make n_conn 0 in
  let step_next c =
    let i = next.(c) in
    next.(c) <- i + 1;
    step c i
  in
  let on_all f =
    let ths = Array.init n_conn (fun c -> Thread.create f c) in
    Array.iter Thread.join ths
  in
  let open_segment n =
    let t0 = now () +. 0.01 in
    on_all (fun c ->
        let j = ref c in
        while !j < n do
          let due = t0 +. (float_of_int !j /. rate) in
          let wait = due -. now () in
          if wait > 0. then Unix.sleepf wait;
          let sent = now () in
          let is_read, ok = step_next c in
          let dt = if ok then (now () -. due) *. 1000. else infinity in
          Mutex.protect m (fun () ->
              late := ((sent -. due) *. 1000.) :: !late;
              if is_read then reads := dt :: !reads else writes := dt :: !writes);
          j := !j + n_conn
        done)
  in
  let per_slice = max 1 (n_closed / segments) in
  (* completion times of the successful operations of one slice, cut
     into windows; the rate of each window *)
  let closed_slice () =
    let done_at = ref [] in
    let s0 = now () in
    on_all (fun c ->
        for _ = 1 to per_slice do
          let _, ok = step_next c in
          if ok then
            let t = now () in
            Mutex.protect m (fun () ->
                incr sat_ok;
                done_at := t :: !done_at)
        done);
    let t = Array.of_list (s0 :: List.sort compare !done_at) in
    List.init
      ((Array.length t - 1) / window_ops)
      (fun w ->
        let a = t.(w * window_ops) and b = t.((w + 1) * window_ops) in
        float_of_int window_ops /. (b -. a))
  in
  let window_rates =
    List.concat
      (List.init segments (fun k ->
           open_segment (n_open / segments);
           let rates = closed_slice () in
           between k;
           rates))
  in
  {
    reads = !reads;
    writes = !writes;
    late = !late;
    sat_ops = !sat_ok;
    sat_rate = (match window_rates with [] -> 0. | l -> pct (100. -. fast_pct) l);
  }

let report_late r =
  say "generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends"
    (median r.late) (pct 99. r.late)
    (List.fold_left max 0. r.late)
    (List.length r.late)

(* The tail is printed rather than reported: on a shared two-core host
   the run-to-run spread of a p99 exceeds any bound a regression gate
   could use. *)
let report_percentiles what l =
  say "%s latency ms over %d requests: p10 %.3f p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f"
    what (List.length l) (pct 10. l) (median l) (pct 90. l) (pct 95. l) (pct 99. l) (pct 99.9 l)
    (List.fold_left max 0. l)

let limit_report what limit l =
  let over = List.length (List.filter (fun x -> x > limit) l) in
  say "%s over the %.0f ms limit: %d of %d" what limit over (List.length l)

(* ------------------------------------------------------------------ *)
(* serve: reads of a live view, 10% toggling writes *)

let serve_pass ~metrics (sd : Gen.serve_data) =
  let st = set_up ~metrics ~data_src:sd.sv_setup ~fresh_data:None in
  let n_conn = 2 in
  let conns = Array.init n_conn (fun c -> if c = 0 then st.conn else connect st.srv) in
  let have = Array.make n_conn false in
  let last_version = Array.make n_conn (-1) in
  let versions = Hashtbl.create 1024 in
  let vm = Mutex.create () in
  let rngs = Array.init n_conn (fun c -> Rng.create ((!seed * 31) + c)) in
  (* true when the read was answered and the answer checked out *)
  let read c =
    match op "read" (fun () -> Client.query conns.(c) sd.sv_read) with
    | None -> false
    | Some (v, _, tuples) ->
      let n = List.length tuples in
      let n = if !inject_wrong && !first_answer then n - 1 else n in
      first_answer := false;
      let ok = ref true in
      let wrong fmt =
        ok := false;
        wrong_answer fmt
      in
      let own = sd.sv_base_rows + if have.(c) then sd.sv_gain c else 0 in
      let other = sd.sv_gain (1 - c) in
      if n <> own && n <> own + other then
        wrong "serve read on connection %d: %d rows, model allows %d or %d" c n own (own + other);
      if v < last_version.(c) then
        wrong "serve read on connection %d: version went back from %d to %d" c last_version.(c) v;
      last_version.(c) <- v;
      Mutex.protect vm (fun () ->
          match Hashtbl.find_opt versions v with
          | Some n' when n' <> n -> wrong "version %d read as %d rows and as %d rows" v n' n
          | _ -> Hashtbl.replace versions v n);
      !ok
  in
  let write c =
    let ins = not have.(c) in
    match op "write" (fun () -> Client.exec conns.(c) (sd.sv_toggle c ins)) with
    | Some _ ->
      have.(c) <- ins;
      true
    | None -> false
  in
  for c = 0 to n_conn - 1 do
    ignore (read c)
  done;
  let before = if metrics then fetch_metrics st.conn else [] in
  let stop_poll = if metrics then poll_queue st.srv else fun () -> [] in
  let step c _ = if Rng.bool rngs.(c) 0.9 then (true, read c) else (false, write c) in
  let rate = p_float "rate" in
  let n_open = int_of_float (rate *. !seconds *. open_frac) in
  let n_closed = int_of_float (p_float "sat_per_s" *. !seconds *. (1. -. open_frac) /. 2.) in
  let r = two_phase ~conns ~rate ~n_open ~n_closed ~step () in
  let queue = stop_poll () in
  let after = if metrics then fetch_metrics st.conn else [] in
  report_late r;
  limit_report "reads" (p_float "latency_limit_ms") r.reads;
  say "open loop: %d reads, %d writes at %.0f stmt/s offered; write p50 %.3f ms"
    (List.length r.reads) (List.length r.writes) rate (median r.writes);
  report_percentiles "read" r.reads;
  let rss = peak_rss_mb st.srv in
  Array.iter Client.close conns;
  kill st.srv;
  {
    e2e =
      [
        ("setup_s", st.setup_s ());
        ("op_p10_ms", pct fast_pct r.reads);
        ("ops_per_s", r.sat_rate);
        ("peak_rss_mb", rss);
      ];
    layers = (if metrics then server_layers ~queue ~before ~after () else []);
  }

(* ------------------------------------------------------------------ *)
(* ingest: durable writes under three live views, then SIGKILL and
   recovery *)

let ingest_pass ~metrics (ig : Gen.ingest_data) =
  let base = Filename.concat !run_dir "data" in
  let st =
    set_up ~metrics ~data_src:ig.ig_setup
      ~fresh_data:
        (Some
           (fun k ->
             let d = Fmt.str "%s%d" base k in
             rm_rf d;
             d))
  in
  let data = Option.get st.srv.data in
  let n_conn = 2 in
  let conns = Array.init n_conn (fun c -> if c = 0 then st.conn else connect st.srv) in
  let rate = p_float "rate" in
  let n_open = int_of_float (rate *. !seconds *. open_frac) in
  let n_closed = int_of_float (p_float "sat_per_s" *. !seconds *. (1. -. open_frac) /. 2.) in
  (* enough writes for either connection's share of every segment *)
  let per_conn = (n_open / n_conn) + segments + n_closed in
  let streams = Array.init n_conn (fun c -> ig.ig_stream c per_conn) in
  let acked = Array.make n_conn [] in
  let before = if metrics then fetch_metrics st.conn else [] in
  let stop_poll = if metrics then poll_queue st.srv else fun () -> [] in
  let wal0 = file_size (Filename.concat data "wal.log") in
  let step c i =
    let w = streams.(c).(i) in
    match op "write" (fun () -> Client.exec conns.(c) w.Gen.w_src) with
    | Some _ ->
      acked.(c) <- w :: acked.(c);
      (false, true)
    | None -> (false, false)
  in
  (* the base relations and views after the writes acknowledged so far *)
  let expect () =
    let model_net, model_road =
      Gen.apply_writes ig (List.concat_map List.rev (Array.to_list acked))
    in
    [
      ("QUERY Net;", Gen.canon (List.map (fun (a, b) -> a ^ "\t" ^ b) model_net));
      ( "QUERY Road;",
        Gen.canon (List.map (fun (a, b, w) -> Fmt.str "%s\t%s\t%d" a b w) model_road) );
      ("QUERY Net{tc()};", Gen.tc_pairs model_net);
      ("QUERY Road{shortest};", Gen.bellman_ford model_road);
      ("QUERY Road{total};", Gen.sums model_road);
    ]
  in
  (* restart on [d]; seconds until the first answered query (infinite
     if it is not answered) *)
  let restart d =
    let t0 = now () in
    let srv = spawn ~metrics ~data:d () in
    let c = connect srv in
    match op "query after restart" (fun () -> Client.query c "QUERY Road{total};") with
    | Some _ -> (srv, c, now () -. t0)
    | None -> (srv, c, infinity)
  in
  (* Recovery is timed at the end of every segment, so the restarts
     sample the whole run rather than one stretch of it.  Each restart
     replays a copy of the data directory: after the last segment the
     server has been SIGKILLed; before that it is idle with every write
     acknowledged, hence fsynced, so its directory holds the bytes a
     kill would leave.  The operation counts fix the replayed suffixes.
     The first restart of each point is checked against the model. *)
  let recovered = ref 0. and replay_ms = ref 0. and recovery_times = ref [] in
  let recover_point ~final =
    let expect = expect () in
    for k = 1 to restarts_per_point do
      let d = data ^ "_rec" in
      copy_dir data d;
      let srv, c, dt = restart d in
      recovery_times := dt :: !recovery_times;
      if k = 1 then begin
        List.iter
          (fun (src, exp) ->
            match op src (fun () -> Client.query c src) with
            | Some (_, _, tuples) -> check_rows ("after recovery: " ^ src) exp tuples
            | None -> ())
          expect;
        if final && metrics then recovered := total (fetch_metrics c) "dc_wal_recovered_records"
      end;
      Client.close c;
      if k = 1 && final && metrics then begin
        (* a graceful stop checkpoints, so the next start replays
           nothing: the difference is the replay *)
        stop srv;
        let srv, c, base_s = restart d in
        Client.close c;
        kill srv;
        if !recovered > 0. then replay_ms := (dt -. base_s) *. 1000. /. !recovered
      end
      else kill srv;
      rm_rf d
    done
  in
  let between k = if k < segments - 1 then recover_point ~final:false in
  let r = two_phase ~between ~conns ~rate ~n_open ~n_closed ~step () in
  let queue = stop_poll () in
  let after = if metrics then fetch_metrics st.conn else [] in
  (* every request commits two statements *)
  let commits = 2 * List.fold_left (fun a l -> a + List.length l) 0 (Array.to_list acked) in
  report_late r;
  limit_report "write requests" (p_float "latency_limit_ms") r.writes;
  report_percentiles "write request" r.writes;
  let rss = peak_rss_mb st.srv in
  Array.iter Client.close conns;
  kill st.srv;
  let wal_bytes = file_size (Filename.concat data "wal.log") in
  let ckpt_bytes = file_size (Filename.concat data "checkpoint.dat") in
  recover_point ~final:true;
  let recovery_times = !recovery_times in
  say "restarts: %d, recovery s: min %.4f p25 %.4f p50 %.4f" (List.length recovery_times)
    (pct 0. recovery_times)
    (pct 25. recovery_times) (median recovery_times);
  say "ingest: %d commits acknowledged (%d requests open loop at %.0f/s, %d closed); WAL %d -> %d bytes"
    commits (List.length r.writes) rate r.sat_ops wal0 wal_bytes;
  let layers =
    if metrics then
      let ckpts = delta before after "dc_wal_checkpoint_ms_count" in
      let per_record = if !recovered > 0. then float_of_int wal_bytes /. !recovered else 0. in
      override (server_layers ~queue ~before ~after ())
        [
          ( "wal.bytes_per_commit",
            per_record
            +. if commits > 0 then ckpts *. float_of_int ckpt_bytes /. float_of_int commits
               else 0. );
          ("wal.recovered_records", !recovered);
          ("wal.replay_ms_per_record", !replay_ms);
          ("wal.recovery_s", pct fast_pct recovery_times);
        ]
    else []
  in
  {
    e2e =
      [
        ("setup_s", st.setup_s ());
        ("op_p10_ms", pct fast_pct r.writes);
        ("ops_per_s", r.sat_rate);
        ("peak_rss_mb", rss);
      ];
    layers;
  }

(* ------------------------------------------------------------------ *)
(* The traced in-process replay: the workload's statements through the
   layers' public functions, one span per call. *)

module Db = Dc_core.Database
module Snapshot = Dc_core.Snapshot
module Planner = Dc_compile.Planner
module Elaborate = Dc_lang.Elaborate
module Parser = Dc_lang.Parser

let method_slug = function
  | Planner.Direct -> "direct"
  | Planner.Decompiled _ -> "decompiled"
  | Planner.Pushed _ -> "pushed"
  | Planner.Magic _ -> "magic"

type replay = {
  db : Db.t;
  env : Elaborate.env;
  plans : (string, int) Hashtbl.t;
  mutable bytes : int;
  mutable rows : int;
  mutable minor : float;
  mutable major : float;
  mutable tuples_out : int;
  mutable evals : int;
}

let replay_setup data_src =
  let db = Db.create () in
  let env = Elaborate.create db in
  ignore (Elaborate.run env (Parser.parse Gen.catalog_src));
  ignore (Elaborate.run env (Parser.parse data_src));
  {
    db;
    env;
    plans = Hashtbl.create 4;
    bytes = 0;
    rows = 0;
    minor = 0.;
    major = 0.;
    tuples_out = 0;
    evals = 0;
  }

let span = Trace.with_span

let the_query src = function
  | [ Dc_lang.Surface.D_query r ] -> r
  | _ -> failwith ("replay: not a single QUERY: " ^ src)

let lower_one rp src =
  let r = the_query src (span "lang.parse" (fun () -> Parser.parse src)) in
  span "lang.lower" (fun () -> Elaborate.lower_query rp.env r)

(* one QUERY through every layer a served read crosses *)
let replay_query rp ~eval_span src =
  span "request" (fun () ->
      let ast = lower_one rp src in
      let snap = Db.snapshot rp.db in
      span "calculus.check" (fun () -> Snapshot.check_query snap ast);
      let d = span "compile.plan" (fun () -> Planner.plan rp.db ast) in
      let m = method_slug d.Planner.d_method in
      Hashtbl.replace rp.plans m (1 + Option.value (Hashtbl.find_opt rp.plans m) ~default:0);
      let g0 = Gc.quick_stat () in
      let result = span eval_span (fun () -> Snapshot.query snap ast) in
      let g1 = Gc.quick_stat () in
      rp.minor <- rp.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      rp.major <- rp.major +. (g1.Gc.major_words -. g0.Gc.major_words);
      rp.evals <- rp.evals + 1;
      let tuples = Relation.to_list result in
      rp.tuples_out <- rp.tuples_out + List.length tuples;
      let resp =
        Wire.Rows
          {
            version = Snapshot.version snap;
            columns = Schema.attr_names (Relation.schema result);
            tuples;
          }
      in
      let bytes = span "net.encode" (fun () -> Wire.encode_response resp) in
      ignore (span "net.decode" (fun () -> Wire.decode_response bytes));
      rp.bytes <- rp.bytes + String.length bytes;
      rp.rows <- rp.rows + List.length tuples)

(* one write statement: parse, then the commit (maintenance included) *)
let replay_write rp src =
  span "request" (fun () ->
      let decls = span "lang.parse" (fun () -> Parser.parse src) in
      span "core.commit" (fun () -> List.iter (Elaborate.execute_decl rp.env) decls);
      ignore (Elaborate.drain_output rp.env))

(* Counters of one untimed evaluation per query form: fixpoint
   statistics, operator rows/probes, and the Datalog rounds of the
   planner's method (magic sets runs the semi-naive engine). *)
let stats_pass rp srcs =
  let rounds = ref 0 and produced = ref 0 and derived = ref 0 in
  Obs.set_enabled true;
  Obs.reset ();
  List.iter
    (fun src ->
      let ast = Elaborate.lower_query rp.env (the_query src (Parser.parse src)) in
      Db.reset_last_stats rp.db;
      let trace = Dc_exec.Ir.Trace.create () in
      ignore (Db.query ~trace rp.db ast);
      Dc_exec.Ir.Trace.register_metrics trace;
      (match Db.last_stats rp.db with
      | Some s ->
        rounds := !rounds + s.Dc_core.Fixpoint.rounds;
        produced := !produced + s.tuples_produced;
        derived := !derived + s.tuples_derived
      | None -> ());
      let d = Planner.plan rp.db ast in
      (match d.Planner.d_method with
      | Planner.Magic _ -> ignore (Planner.execute rp.db d)
      | _ -> ());
      (* untraced, on this (main) domain: the fixpoint shards its rounds
         when the workload's degree is above one *)
      ignore (Snapshot.query (Db.snapshot rp.db) ast))
    srcs;
  let m = parse_metrics (Obs.to_prometheus ()) in
  Obs.set_enabled false;
  let rows = total m "dc_operator_rows_total" and probes = total m "dc_operator_probes_total" in
  let dl_rounds = total m "dc_datalog_rounds_total" in
  let hist name =
    let n = total m (name ^ "_count") in
    if n > 0. then total m (name ^ "_sum") /. n else 0.
  in
  [
    ("par.rounds", total m "dc_par_rounds_total");
    ("par.imbalance", hist "dc_par_imbalance");
    ("par.merge_ms", hist "dc_par_merge_ms");
    ("core.fixpoint_rounds", float_of_int !rounds);
    ("core.tuples_produced", float_of_int !produced);
    ("core.tuples_derived", float_of_int !derived);
    ( "core.useful_ratio",
      if !derived > 0 then float_of_int !produced /. float_of_int !derived else 0. );
    ("exec.rows", rows);
    ("exec.probes", probes);
    ( "exec.probes_per_tuple",
      if !produced > 0 then probes /. float_of_int !produced else 0. );
    ("datalog.rounds", dl_rounds);
    ("datalog.round_ms", total m "dc_datalog_round_ms_sum");
  ]

let all_classes = [ "tcn_chain"; "tc_random"; "tc_bound"; "sg"; "mutual" ]

(* span-derived layer metrics; absent layers read zero *)
let span_layers rp =
  let us name = Trace.mean (Trace.durations name) *. 1e6 in
  let ms name = Trace.mean (Trace.durations name) *. 1e3 in
  [
    ("lang.parse_us", us "lang.parse");
    ("lang.lower_us", us "lang.lower");
    ("calculus.check_us", us "calculus.check");
    ("compile.plan_us", us "compile.plan");
  ]
  @ List.map
      (fun m ->
        ( "compile.plans." ^ m,
          float_of_int (Option.value (Hashtbl.find_opt rp.plans m) ~default:0) ))
      [ "direct"; "decompiled"; "pushed"; "magic" ]
  @ List.map (fun c -> ("core.eval_ms." ^ c, ms ("core.eval." ^ c))) all_classes
  @ [
      ("core.view_read_us", us "core.view_read");
      ( "core.minor_words_per_tuple",
        if rp.tuples_out > 0 then rp.minor /. float_of_int rp.tuples_out else 0. );
      ("core.major_words", if rp.evals > 0 then rp.major /. float_of_int rp.evals else 0.);
      ("net.encode_ms", ms "net.encode");
      ("net.decode_ms", ms "net.decode");
      ("net.bytes_per_row", if rp.rows > 0 then float_of_int rp.bytes /. float_of_int rp.rows else 0.);
    ]

let print_spans () =
  say "span self times (in-process replay):";
  List.iter
    (fun (name, n, tot, self) ->
      say "  %-24s calls %6d  total %10.3f ms  self %10.3f ms" name n (tot *. 1e3) (self *. 1e3))
    (Trace.summary ());
  if !spans_file <> "" then Trace.write !spans_file

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* what a run does, with the sizes derived from the generated data *)
let describe sizes =
  let loop =
    match !workload with
    | "closure" | "closure_par" ->
      Fmt.str "closed loop, 1 connection, classes %s round-robin, %d rounds"
        (String.concat "," (Gen.list_param !params "classes"))
        (closure_rounds ())
    | w ->
      Fmt.str
        "2 connections, %d segments of open loop at %g %s/s offered (%.0f%% of the time, \
         latency limit %g ms) then closed-loop saturation"
        segments (p_float "rate")
        (if w = "serve" then "statement" else "request")
        (100. *. open_frac) (p_float "latency_limit_ms")
  in
  say "%s (seed %d, DC_DOMAINS=%d): %s; %s" !workload !seed (p_int "dc_domains") loop sizes

let run_workload ~metrics =
  match !workload with
  | "closure" | "closure_par" ->
    let data_src, classes, sizes = Gen.closure_data ~seed:!seed !params in
    describe sizes;
    (closure_pass ~metrics ~data_src ~classes, `Closure (data_src, classes))
  | "serve" ->
    let sd = Gen.serve_data ~seed:!seed !params in
    describe sd.sv_sizes;
    (serve_pass ~metrics sd, `Serve sd)
  | "ingest" ->
    let ig = Gen.ingest_data ~seed:!seed !params in
    describe ig.ig_sizes;
    (ingest_pass ~metrics ig, `Ingest ig)
  | w -> Fmt.failwith "unknown workload %s" w

let replay = function
  | `Closure (data_src, classes) ->
    let rp = replay_setup data_src in
    let srcs = List.map (fun (qc : Gen.query_class) -> qc.qc_src) classes in
    for _ = 1 to replay_rounds do
      List.iter
        (fun (qc : Gen.query_class) ->
          replay_query rp ~eval_span:("core.eval." ^ qc.qc_name) qc.qc_src)
        classes
    done;
    span_layers rp @ stats_pass rp srcs
  | `Serve (sd : Gen.serve_data) ->
    let rp = replay_setup sd.sv_setup in
    let rng = Rng.create !seed in
    let have = ref false in
    for _ = 1 to p_int "replay_ops" do
      if Rng.bool rng 0.9 then replay_query rp ~eval_span:"core.view_read" sd.sv_read
      else begin
        replay_write rp (sd.sv_toggle 0 (not !have));
        have := not !have
      end
    done;
    span_layers rp @ stats_pass rp [ sd.sv_read ]
  | `Ingest (ig : Gen.ingest_data) ->
    let rp = replay_setup ig.ig_setup in
    Array.iter (fun w -> replay_write rp w.Gen.w_src) (ig.ig_stream 0 (p_int "replay_ops"));
    span_layers rp @ stats_pass rp []

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let emit metrics =
  let body =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (Atomic.get failed = 0) (Atomic.get attempted) (Atomic.get failed) body

let () =
  (try Unix.mkdir !run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Dc_par.Par.set_domains (p_int "dc_domains");
  let plain, shape = run_workload ~metrics:false in
  let metrics =
    if not !traced then plain.e2e
    else begin
      let with_obs, _ = run_workload ~metrics:true in
      (* one traced/untraced pair, so the figure is indicative only: the
         spread between two runs of the same pass is of the same order *)
      say
        "tracing overhead, indicative (one pair in this invocation: server metrics and the \
         queue sampler on vs off; + is slower):";
      let overheads =
        List.filter_map
          (fun (k, a) ->
            let b = List.assoc k with_obs.e2e in
            (* a rate drops where a time grows *)
            let slower =
              if String.ends_with ~suffix:"_per_s" k then (a /. b) -. 1. else (b /. a) -. 1.
            in
            say "  %-16s untraced %12.4f  traced %12.4f  %+7.2f%%" k a b (slower *. 100.);
            if k = "setup_s" || k = "peak_rss_mb" then None else Some (slower *. 100.))
          plain.e2e
      in
      let local = replay shape in
      print_spans ();
      (* Datalog rounds run both in the server (aggregate views) and in
         the in-process planner pass (magic sets): counts add up, and
         round_ms is the mean over all of them *)
      let get k l = Option.value (List.assoc_opt k l) ~default:0. in
      let rounds = get "datalog.rounds" with_obs.layers +. get "datalog.rounds" local in
      let round_ms = get "datalog.round_ms" with_obs.layers +. get "datalog.round_ms" local in
      let datalog =
        [
          ("datalog.rounds", rounds);
          ("datalog.round_ms", if rounds > 0. then round_ms /. rounds else 0.);
        ]
      in
      override with_obs.layers datalog
      @ List.filter (fun (k, _) -> not (List.mem_assoc k datalog)) local
      @ [ ("obs.overhead_pct", median overheads) ]
    end
  in
  Format.pp_print_flush Format.std_formatter ();
  emit metrics;
  exit (if Atomic.get failed = 0 then 0 else 1)
