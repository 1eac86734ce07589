(* Seeded inputs for the benchmark workloads and their reference answers.

   Everything the server sees is DBPL source built here from the seed:
   the shared catalog ([catalog_src]), per-workload data as INSERT
   statements, and the statements of the measured phases.  Reference
   answers come from evaluators that share no code path with the
   server's constructor fixpoint: [Algebra.transitive_closure] for the
   closures, the naive Datalog engine for same-generation and the
   mutually recursive scene, and a Bellman-Ford relaxation for shortest
   paths.  Graph shapes come from [Dc_workload.Graph_gen]; the seed
   relabels their nodes (and draws the random graphs), so two seeds give
   different inputs of the same size. *)

open Dc_relation
open Dc_workload
module TS = Dc_datalog.Facts.TS

(* ------------------------------------------------------------------ *)
(* Rows in canonical form: every answer is compared as a sorted array
   of tab-joined field strings. *)

let field = function
  | Value.Str s -> s
  | Value.Int i -> string_of_int i
  | v -> Value.to_string v

let row t = String.concat "\t" (List.map field (Tuple.to_list t))

let canon rows =
  let a = Array.of_list rows in
  Array.sort compare a;
  a

let canon_tuples ts = canon (List.map row ts)

(* ------------------------------------------------------------------ *)
(* Seeded relabelling *)

let pairs_of rel =
  Relation.fold
    (fun t acc -> (field (Tuple.get t 0), field (Tuple.get t 1)) :: acc)
    rel []
  |> List.rev

(* a bijection from the node names of [names] onto "<prefix><k>" *)
let relabel rng prefix names =
  let seen = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace seen n ()) names;
  let distinct =
    Array.of_list (List.sort compare (Hashtbl.fold (fun n () a -> n :: a) seen []))
  in
  let ids = Array.init (Array.length distinct) Fun.id in
  Rng.shuffle rng ids;
  let map = Hashtbl.create (Array.length distinct) in
  Array.iteri (fun i n -> Hashtbl.replace map n (Fmt.str "%s%d" prefix ids.(i))) distinct;
  Hashtbl.find map

let relabel_pairs rng prefix ps =
  let f = relabel rng prefix (List.concat_map (fun (a, b) -> [ a; b ]) ps) in
  List.map (fun (a, b) -> (f a, f b)) ps

let edge_rel ps =
  Relation.of_list Graph_gen.edge_schema
    (List.map (fun (a, b) -> Tuple.make2 (Value.str a) (Value.str b)) ps)

(* ------------------------------------------------------------------ *)
(* DBPL source *)

(* The catalog every workload declares: relation types, the recursive
   constructors of the query classes, and the two aggregate
   constructors behind the ingest views.  Constructors that are not
   mutually recursive are separated by VAR declarations so each
   registers as its own group. *)
let catalog_src =
  {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
TYPE wedge = RELATION src, dst OF RECORD src, dst: STRING; w: INTEGER END;
TYPE persrc = RELATION src OF RECORD src: STRING; v: INTEGER END;
VAR Chain: edgerel;
CONSTRUCTOR tcn FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <p.a, q.b> OF EACH p IN Rel{tcn()}, EACH q IN Rel{tcn()}: p.b = q.a
END tcn;
VAR Graph: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
VAR SgUp: edgerel;
VAR SgFlat: edgerel;
VAR SgDown: edgerel;
CONSTRUCTOR sg FOR Up: edgerel (Flat: edgerel; Down: edgerel): edgerel;
BEGIN EACH f IN Flat: TRUE,
      <u.a, d.b> OF EACH u IN Up, EACH s IN Up{sg(Flat, Down)}, EACH d IN Down:
        u.b = s.a AND s.b = d.a
END sg;
VAR Infront: edgerel;
VAR Ontop: edgerel;
CONSTRUCTOR ahead FOR Rel: edgerel (On: edgerel): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.a, ah.b> OF EACH r IN Rel, EACH ah IN Rel{ahead(On)}: r.b = ah.a,
      <r.a, ab.b> OF EACH r IN Rel, EACH ab IN On{above(Rel)}: r.b = ab.a
END ahead;
CONSTRUCTOR above FOR Rel: edgerel (Fr: edgerel): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.a, ab.b> OF EACH r IN Rel, EACH ab IN Rel{above(Fr)}: r.b = ab.a,
      <r.a, ah.b> OF EACH r IN Rel, EACH ah IN Fr{ahead(Rel)}: r.b = ah.a
END above;
VAR Road: wedge;
CONSTRUCTOR shortest FOR Rel: wedge (): wedge;
BEGIN EACH e IN Rel: TRUE,
      <p.src, e.dst, MIN (p.w + e.w)> OF EACH p IN Rel{shortest}, EACH e IN Rel:
        p.dst = e.src
        GROUP BY p.src, e.dst
END shortest;
VAR Live: edgerel;
CONSTRUCTOR total FOR Rel: wedge (): persrc;
BEGIN <e.src, e.dst, SUM e.w> OF EACH e IN Rel: TRUE GROUP BY e.src
END total;
VAR Net: edgerel;
|}

(* INSERT statements in chunks, so no single statement is huge *)
let insert_src rel rows =
  let b = Buffer.create 4096 in
  List.iteri
    (fun i r ->
      if i mod 500 = 0 then begin
        if i > 0 then Buffer.add_string b ";\n";
        Buffer.add_string b (Fmt.str "INSERT %s VALUES " rel)
      end
      else Buffer.add_string b ", ";
      Buffer.add_string b r)
    rows;
  if rows <> [] then Buffer.add_string b ";\n";
  Buffer.contents b

let pair_lit (a, b) = Fmt.str "(%S, %S)" a b
let wedge_lit (a, b, w) = Fmt.str "(%S, %S, %d)" a b w
let insert_pairs rel ps = insert_src rel (List.map pair_lit ps)
let insert_wedges rel ws = insert_src rel (List.map wedge_lit ws)

(* ------------------------------------------------------------------ *)
(* Reference evaluators *)

let tc_pairs ps = canon_tuples (Relation.to_list (Algebra.transitive_closure (edge_rel ps)))

let naive_query program edb pred =
  canon_tuples (TS.elements (Dc_datalog.Naive.query program edb pred))

let facts bindings =
  List.fold_left
    (fun acc (name, ps) -> Dc_datalog.Facts.of_relation name (edge_rel ps) acc)
    (Dc_datalog.Facts.empty ()) bindings

let sg_program =
  Dc_datalog.Syntax.(
    [
      rule (atom "sg" [ var "X"; var "Y" ]) [ Pos (atom "flat" [ var "X"; var "Y" ]) ];
      rule
        (atom "sg" [ var "X"; var "Y" ])
        [
          Pos (atom "up" [ var "X"; var "U" ]);
          Pos (atom "sg" [ var "U"; var "V" ]);
          Pos (atom "down" [ var "V"; var "Y" ]);
        ];
    ])

let scene_program =
  Dc_datalog.Syntax.(
    let r h b = rule (atom h [ var "X"; var "Y" ]) [ Pos (atom b [ var "X"; var "Y" ]) ] in
    let step h base via =
      rule
        (atom h [ var "X"; var "Y" ])
        [ Pos (atom base [ var "X"; var "Z" ]); Pos (atom via [ var "Z"; var "Y" ]) ]
    in
    [
      r "ahead" "infront";
      step "ahead" "infront" "ahead";
      step "ahead" "infront" "above";
      r "above" "ontop";
      step "above" "ontop" "above";
      step "above" "ontop" "ahead";
    ])

(* least path weight over paths of at least one edge, every source *)
let bellman_ford ws =
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b, _) -> [ a; b ]) ws)
  in
  let rows = ref [] in
  List.iter
    (fun s ->
      let dist = Hashtbl.create 64 in
      List.iter
        (fun (a, b, w) ->
          if a = s then
            match Hashtbl.find_opt dist b with
            | Some d when d <= w -> ()
            | _ -> Hashtbl.replace dist b w)
        ws;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b, w) ->
            match Hashtbl.find_opt dist a with
            | None -> ()
            | Some da -> (
              match Hashtbl.find_opt dist b with
              | Some db when db <= da + w -> ()
              | _ ->
                Hashtbl.replace dist b (da + w);
                changed := true))
          ws
      done;
      Hashtbl.iter (fun d w -> rows := Fmt.str "%s\t%s\t%d" s d w :: !rows) dist)
    nodes;
  canon !rows

let sums ws =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (a, _, w) ->
      Hashtbl.replace t a (w + Option.value (Hashtbl.find_opt t a) ~default:0))
    ws;
  canon (Hashtbl.fold (fun a v acc -> Fmt.str "%s\t%d" a v :: acc) t [])

(* ------------------------------------------------------------------ *)
(* Parameters *)

type params = (string * string) list

let int_param (p : params) k =
  match List.assoc_opt k p with
  | Some v -> int_of_string v
  | None -> Fmt.failwith "missing workload parameter %s" k

let float_param (p : params) k =
  match List.assoc_opt k p with
  | Some v -> float_of_string v
  | None -> Fmt.failwith "missing workload parameter %s" k

let list_param (p : params) k =
  match List.assoc_opt k p with
  | Some v -> String.split_on_char ',' v
  | None -> Fmt.failwith "missing workload parameter %s" k

(* ------------------------------------------------------------------ *)
(* closure / closure_par: recursive query classes over fixed data *)

type query_class = {
  qc_name : string;  (** metric suffix: q_<name>_ms *)
  qc_src : string;  (** the QUERY statement sent *)
  qc_expect : string array;  (** reference answer, canonical *)
}

(* [edges] distinct random edges over [nodes], a cycle through every node
   among them: the graph is strongly connected, so its closure has
   exactly nodes^2 tuples whatever the seed *)
let strong_graph rng ~nodes ~edges =
  let seen = Hashtbl.create (2 * edges) in
  let add acc (a, b) =
    if a = b || Hashtbl.mem seen (a, b) then acc
    else begin
      Hashtbl.replace seen (a, b) ();
      (a, b) :: acc
    end
  in
  let cycle = List.fold_left add [] (List.init nodes (fun i -> (i, (i + 1) mod nodes))) in
  let rec fill acc =
    if Hashtbl.length seen >= edges then acc
    else fill (add acc (Rng.int rng nodes, Rng.int rng nodes))
  in
  List.rev_map (fun (a, b) -> (Fmt.str "%d" a, Fmt.str "%d" b)) (fill cycle)

(* The query classes of closure and closure_par.  Each input draws from
   its own generator split off the seed, and only the relations of the
   selected classes are generated, inserted and referenced, so a class's
   data is the same whichever other classes run with it.  Returns the
   setup source, the selected classes and a line describing their
   sizes. *)
let closure_data ~seed (p : params) =
  let wanted = list_param p "classes" in
  let master = Rng.create seed in
  let rng = Array.init 4 (fun _ -> Rng.split master) in
  let chain =
    lazy
      (let ps = relabel_pairs rng.(0) "c" (pairs_of (Graph_gen.chain (int_param p "chain"))) in
       (ps, tc_pairs ps))
  in
  let graph =
    lazy
      (let ps =
         relabel_pairs rng.(1) "g"
           (strong_graph rng.(1) ~nodes:(int_param p "rand_nodes")
              ~edges:(int_param p "rand_edges"))
       in
       (ps, tc_pairs ps))
  in
  let sg =
    lazy
      (let up, flat, down = Graph_gen.same_generation_tree (int_param p "sg_depth") in
       let f =
         relabel rng.(2) "p"
           (List.concat_map (fun (a, b) -> [ a; b ]) (pairs_of up @ pairs_of flat))
       in
       let map ps = List.map (fun (a, b) -> (f a, f b)) (pairs_of ps) in
       (map up, map flat, map down))
  in
  let scene =
    lazy
      (let infront, ontop =
         Graph_gen.scene ~depth:(int_param p "scene_depth") ~stack:(int_param p "scene_stack")
       in
       let g =
         relabel rng.(3) "o"
           (List.concat_map (fun (a, b) -> [ a; b ]) (pairs_of infront @ pairs_of ontop))
       in
       let map ps = List.map (fun (a, b) -> (g a, g b)) (pairs_of ps) in
       (map infront, map ontop))
  in
  (* the bound source: the node reaching the most others, so the
     restricted closure is never trivially small *)
  let bound =
    lazy
      (let _, graph_tc = Lazy.force graph in
       let counts = Hashtbl.create 256 in
       Array.iter
         (fun r ->
           let a = List.hd (String.split_on_char '\t' r) in
           Hashtbl.replace counts a (1 + Option.value (Hashtbl.find_opt counts a) ~default:0))
         graph_tc;
       let source =
         fst
           (Hashtbl.fold
              (fun a n (best, bn) -> if n > bn || (n = bn && a < best) then (a, n) else (best, bn))
              counts ("", -1))
       in
       ( source,
         canon
           (List.filter
              (fun r -> List.hd (String.split_on_char '\t' r) = source)
              (Array.to_list graph_tc)) ))
  in
  (* name, the inputs it reads (shared inputs are inserted once), and
     the class itself, forced only when selected *)
  let all =
    [
      ( "tcn_chain",
        [ "chain" ],
        lazy ("QUERY Chain{tcn()};", snd (Lazy.force chain)) );
      ("tc_random", [ "graph" ], lazy ("QUERY Graph{tc()};", snd (Lazy.force graph)));
      ( "tc_bound",
        [ "graph" ],
        lazy
          (let source, expect = Lazy.force bound in
           (Fmt.str "QUERY {EACH p IN Graph{tc()}: p.a = %S};" source, expect)) );
      ( "sg",
        [ "sg" ],
        lazy
          (let up, flat, down = Lazy.force sg in
           ( "QUERY SgUp{sg(SgFlat, SgDown)};",
             naive_query sg_program (facts [ ("up", up); ("flat", flat); ("down", down) ]) "sg" ))
      );
      ( "mutual",
        [ "scene" ],
        lazy
          (let infront, ontop = Lazy.force scene in
           ( "QUERY Infront{ahead(Ontop)};",
             naive_query scene_program (facts [ ("infront", infront); ("ontop", ontop) ]) "ahead"
           )) );
    ]
  in
  let selected = List.filter (fun (name, _, _) -> List.mem name wanted) all in
  let inputs = List.sort_uniq compare (List.concat_map (fun (_, i, _) -> i) selected) in
  let input = function
    | "chain" ->
      let c, tc = Lazy.force chain in
      ( insert_pairs "Chain" c,
        Fmt.str "chain of %d edges (closure %d rows)" (List.length c) (Array.length tc) )
    | "graph" ->
      let g, tc = Lazy.force graph in
      ( insert_pairs "Graph" g,
        Fmt.str "graph of %d nodes, %d edges (closure %d rows)" (int_param p "rand_nodes")
          (List.length g) (Array.length tc) )
    | "sg" ->
      let up, flat, down = Lazy.force sg in
      ( insert_pairs "SgUp" up ^ insert_pairs "SgFlat" flat ^ insert_pairs "SgDown" down,
        Fmt.str "same-generation tree of depth %d (%d up edges)" (int_param p "sg_depth")
          (List.length up) )
    | "scene" ->
      let infront, ontop = Lazy.force scene in
      ( insert_pairs "Infront" infront ^ insert_pairs "Ontop" ontop,
        Fmt.str "scene of depth %d, stacks of %d (%d infront, %d ontop)"
          (int_param p "scene_depth") (int_param p "scene_stack") (List.length infront)
          (List.length ontop) )
    | i -> Fmt.failwith "unknown closure input %s" i
  in
  let srcs, sizes = List.split (List.map input inputs) in
  let classes =
    List.map
      (fun (name, _, c) ->
        let src, expect = Lazy.force c in
        { qc_name = name; qc_src = src; qc_expect = expect })
      selected
  in
  (String.concat "" srcs, classes, String.concat "; " sizes)

(* ------------------------------------------------------------------ *)
(* Disjoint chains: the bases of the maintained views in serve and
   ingest.  A chain of length [len] contributes len*(len+1)/2 closure
   tuples; an edge from a fresh node into position [i] adds len-i+1. *)

type chains = {
  ch_pairs : (string * string) list;
  ch_node : int -> int -> string;  (** chain, position -> label *)
}

let chains rng prefix ~count ~len =
  let raw = List.init count (fun c -> List.init len (fun i -> (c, i))) |> List.concat in
  let name (c, i) = Fmt.str "%d_%d" c i in
  let f =
    relabel rng prefix
      (List.concat_map (fun (c, i) -> [ name (c, i); name (c, i + 1) ]) raw)
  in
  {
    ch_pairs = List.map (fun (c, i) -> (f (name (c, i)), f (name (c, i + 1)))) raw;
    ch_node = (fun c i -> f (name (c, i)));
  }

(* ------------------------------------------------------------------ *)
(* serve: a live transitive-closure view, 90/10 reads and toggles *)

type serve_data = {
  sv_setup : string;
  sv_read : string;
  sv_base_rows : int;  (** view rows with no scratch edge present *)
  sv_toggle : int -> bool -> string;  (** connection, insert? -> statement *)
  sv_gain : int -> int;  (** rows connection c's scratch edge adds *)
  sv_sizes : string;
}

let serve_data ~seed (p : params) =
  let rng = Rng.create seed in
  let count = int_param p "chains" and len = int_param p "chain_len" in
  let ch = chains rng "l" ~count ~len in
  (* connection c's scratch edge enters chain c at a distinct depth, so
     the row count alone tells which scratch edges are present *)
  let entry c = c * len / 3 in
  let target c = ch.ch_node (c mod count) (entry c) in
  {
    sv_setup = insert_pairs "Live" ch.ch_pairs ^ "MATERIALIZE Live{tc()};\n";
    sv_read = "QUERY Live{tc()};";
    sv_base_rows = count * len * (len + 1) / 2;
    sv_toggle =
      (fun c ins ->
        Fmt.str "%s Live VALUES (\"x%d\", %S);"
          (if ins then "INSERT" else "DELETE")
          c (target c));
    sv_gain = (fun c -> len - entry c + 1);
    sv_sizes =
      Fmt.str "live tc view over %d chains of %d (%d rows; +%d or +%d per scratch edge)" count
        len
        (count * len * (len + 1) / 2)
        (len - entry 0 + 1)
        (len - entry 1 + 1);
  }

(* ------------------------------------------------------------------ *)
(* ingest: writes under three live views (tc over Net; recursive MIN and
   SUM over Road).  Every request toggles one Net and one Road scratch
   tuple (two statements, two commits), so requests cost alike.  Each
   connection keeps at most [window] scratch tuples per relation
   outstanding and deletes its oldest before inserting more, so the data
   size stays within a fixed band however long the run. *)

type write = {
  w_src : string;  (** the request: a Net statement, then a Road statement *)
  w_net : bool * (string * string);  (** insert?, Net tuple *)
  w_road : bool * (string * string * int);  (** insert?, Road tuple *)
}

type ingest_data = {
  ig_setup : string;
  ig_net : (string * string) list;
  ig_road : (string * string * int) list;
  ig_stream : int -> int -> write array;  (** connection, count -> writes *)
  ig_sizes : string;
}

(* [n] toggles of fresh scratch tuples: insert until [window] are
   outstanding, then alternately delete the oldest and insert *)
let toggles rng ~window n fresh =
  let outstanding = Queue.create () in
  List.init n (fun k ->
      if Queue.length outstanding >= window then (false, Queue.pop outstanding)
      else begin
        let t = fresh k (Rng.int rng 1_000_000) in
        Queue.push t outstanding;
        (true, t)
      end)

let verb ins = if ins then "INSERT" else "DELETE"

let ingest_data ~seed (p : params) =
  let rng = Rng.create seed in
  let count = int_param p "chains" and len = int_param p "chain_len" in
  let ch = chains rng "k" ~count ~len in
  (* a circulant road network (i -> i+1, i+3, i+7) with fixed weights:
     every seed maintains the same shortest-path problem, relabelled *)
  let n = int_param p "road_nodes" in
  let road_raw =
    List.concat_map
      (fun i ->
        List.mapi
          (fun k d -> (string_of_int i, string_of_int ((i + d) mod n), 1 + (((5 * i) + (3 * k)) mod 9)))
          [ 1; 3; 7 ])
      (List.init n Fun.id)
  in
  let rf = relabel rng "w" (List.concat_map (fun (a, b, _) -> [ a; b ]) road_raw) in
  let road = List.map (fun (a, b, w) -> (rf a, rf b, w)) road_raw in
  let road_names = Array.of_list (List.sort_uniq compare (List.map (fun (a, _, _) -> a) road)) in
  let window = int_param p "window" in
  let stream_seed = Rng.int rng 1_000_000 in
  let stream c n =
    let rng = Rng.create (stream_seed + (7919 * c)) in
    (* a fresh source node into a random chain position / road node *)
    let net =
      toggles rng ~window n (fun k r ->
          (Fmt.str "z%d_%d" c k, ch.ch_node (r mod count) (r / count mod len)))
    in
    let road =
      toggles rng ~window n (fun k r ->
          (Fmt.str "y%d_%d" c k, road_names.(r mod Array.length road_names), 1 + (r mod 9)))
    in
    Array.of_list
      (List.map2
         (fun ((ni, nt) as w_net) ((ri, rt) as w_road) ->
           {
             w_src =
               Fmt.str "%s Net VALUES %s; %s Road VALUES %s;" (verb ni) (pair_lit nt) (verb ri)
                 (wedge_lit rt);
             w_net;
             w_road;
           })
         net road)
  in
  {
    ig_setup =
      insert_pairs "Net" ch.ch_pairs ^ insert_wedges "Road" road
      ^ "MATERIALIZE Net{tc()};\nMATERIALIZE Road{shortest};\nMATERIALIZE Road{total};\n";
    ig_net = ch.ch_pairs;
    ig_road = road;
    ig_stream = stream;
    ig_sizes =
      Fmt.str
        "tc view over %d chains of %d (%d rows); MIN and SUM views over a %d-node circulant \
         road network (%d edges); at most %d scratch tuples per relation outstanding per \
         connection"
        count len
        (count * len * (len + 1) / 2)
        n (List.length road) window;
  }

(* the base relations after applying [writes] in order *)
let apply_writes ig (writes : write list) =
  let net = Hashtbl.create 256 and road = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace net t ()) ig.ig_net;
  List.iter (fun (a, b, w) -> Hashtbl.replace road (a, b) w) ig.ig_road;
  List.iter
    (fun w ->
      (match w.w_net with
      | true, t -> Hashtbl.replace net t ()
      | false, t -> Hashtbl.remove net t);
      match w.w_road with
      | true, (a, b, x) -> Hashtbl.replace road (a, b) x
      | false, (a, b, _) -> Hashtbl.remove road (a, b))
    writes;
  ( Hashtbl.fold (fun t () acc -> t :: acc) net [],
    Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) road [] )
