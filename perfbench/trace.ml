(* In-memory spans for the traced run: one record per call the benchmark
   makes into a layer's public function, with its name, start, end and
   parent.  Nothing is written while recording; [write] dumps every span
   at the end.  A span's self time is its duration minus the part of it
   its child spans cover (children never overlap: the replay is
   sequential). *)

type span = {
  sp_name : string;
  sp_parent : int;  (** index of the enclosing span, -1 at top level *)
  sp_start : float;  (** seconds, [Unix.gettimeofday] *)
  mutable sp_stop : float;
  mutable sp_child : float;  (** seconds covered by direct children *)
}

let spans = ref [||]
let used = ref 0
let current = ref (-1)

let push s =
  if !used = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !used)) s in
    Array.blit !spans 0 bigger 0 !used;
    spans := bigger
  end;
  !spans.(!used) <- s;
  incr used;
  !used - 1

let with_span name f =
  let parent = !current in
  let id =
    push
      { sp_name = name; sp_parent = parent; sp_start = Unix.gettimeofday ();
        sp_stop = 0.; sp_child = 0. }
  in
  current := id;
  let finish () =
    let s = !spans.(id) in
    s.sp_stop <- Unix.gettimeofday ();
    if parent >= 0 then begin
      let p = !spans.(parent) in
      p.sp_child <- p.sp_child +. (s.sp_stop -. s.sp_start)
    end;
    current := parent
  in
  Fun.protect ~finally:finish f

let iter f =
  for i = 0 to !used - 1 do
    f !spans.(i)
  done

(* durations in seconds of every span called [name] *)
let durations name =
  let acc = ref [] in
  iter (fun s -> if s.sp_name = name then acc := (s.sp_stop -. s.sp_start) :: !acc);
  List.rev !acc

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* per span name: calls, total seconds, self seconds *)
let summary () =
  let t = Hashtbl.create 16 in
  iter (fun s ->
      let n, total, self =
        Option.value (Hashtbl.find_opt t s.sp_name) ~default:(0, 0., 0.)
      in
      let d = s.sp_stop -. s.sp_start in
      Hashtbl.replace t s.sp_name (n + 1, total +. d, self +. d -. s.sp_child));
  List.sort compare (Hashtbl.fold (fun k (n, tot, self) acc -> (k, n, tot, self) :: acc) t [])

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tstop_s\n";
  let base = if !used > 0 then !spans.(0).sp_start else 0. in
  for i = 0 to !used - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" i s.sp_parent s.sp_name
      (s.sp_start -. base) (s.sp_stop -. base)
  done;
  close_out oc
