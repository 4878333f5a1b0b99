(* Unit and property tests for the relational-algebra engine. *)

open Helpers
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Ops = Relalg.Ops

(* ------------------------------------------------------------------ *)
(* Symbol                                                              *)

let test_symbol_roundtrip () =
  let t = Relalg.Symbol.create () in
  let a = Relalg.Symbol.intern t "alpha" in
  let b = Relalg.Symbol.intern t "beta" in
  check_int "codes are dense" 0 a;
  check_int "second code" 1 b;
  check_int "idempotent" a (Relalg.Symbol.intern t "alpha");
  Alcotest.(check string) "name back" "beta" (Relalg.Symbol.name t b);
  check_int "size" 2 (Relalg.Symbol.size t)

let test_symbol_growth () =
  let t = Relalg.Symbol.create () in
  for i = 0 to 999 do
    ignore (Relalg.Symbol.intern t (string_of_int i))
  done;
  check_int "all interned" 1000 (Relalg.Symbol.size t);
  Alcotest.(check string) "spot check" "777" (Relalg.Symbol.name t 777);
  Alcotest.check_raises "unknown code" Not_found (fun () ->
      ignore (Relalg.Symbol.name t 1000))

(* ------------------------------------------------------------------ *)
(* Tuple                                                               *)

let test_tuple_basics () =
  let t = Tuple.of_list [ 3; 1; 4 ] in
  check_int "arity" 3 (Tuple.arity t);
  check_int "get" 4 (Tuple.get t 2);
  check_bool "equal" true (Tuple.equal t (Tuple.of_list [ 3; 1; 4 ]));
  check_bool "not equal" false (Tuple.equal t (Tuple.of_list [ 3; 1; 5 ]));
  check_bool "shorter differs" false (Tuple.equal t (Tuple.of_list [ 3; 1 ]))

let test_tuple_project_concat () =
  let t = Tuple.of_list [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "project" [ 30; 10; 30 ]
    (Tuple.to_list (Tuple.project t [| 2; 0; 2 |]));
  Alcotest.(check (list int)) "concat" [ 10; 20; 30; 1 ]
    (Tuple.to_list (Tuple.concat t (Tuple.of_list [ 1 ])))

let tuple_pair_arbitrary =
  QCheck.(pair (list_of_size (Gen.int_range 0 12) small_int)
            (list_of_size (Gen.int_range 0 12) small_int))

let prop_tuple_hash_consistent =
  qtest "hash agrees with equal" tuple_pair_arbitrary (fun (a, b) ->
      let ta = Tuple.of_list a and tb = Tuple.of_list b in
      (not (Tuple.equal ta tb)) || Tuple.hash ta = Tuple.hash tb)

let prop_tuple_compare_total =
  qtest "compare consistent with equal" tuple_pair_arbitrary (fun (a, b) ->
      let ta = Tuple.of_list a and tb = Tuple.of_list b in
      Tuple.equal ta tb = (Tuple.compare ta tb = 0))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let test_schema_construction () =
  let s = Schema.of_list [ 5; 2; 9 ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "index" 1 (Schema.index s 2);
  check_bool "mem" true (Schema.mem s 9);
  check_bool "not mem" false (Schema.mem s 3);
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Schema: duplicate attribute 5") (fun () ->
      ignore (Schema.of_list [ 5; 2; 5 ]))

let test_schema_set_operations () =
  let a = Schema.of_list [ 1; 2; 3 ] and b = Schema.of_list [ 3; 4; 1 ] in
  Alcotest.(check (list int)) "inter keeps left order" [ 1; 3 ]
    (Schema.attrs (Schema.inter a b));
  Alcotest.(check (list int)) "diff" [ 2 ] (Schema.attrs (Schema.diff a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ]
    (Schema.attrs (Schema.union a b));
  check_bool "subset" true (Schema.subset (Schema.of_list [ 2; 1 ]) a);
  check_bool "not subset" false (Schema.subset b a);
  check_bool "disjoint" true
    (Schema.is_disjoint a (Schema.of_list [ 7; 8 ]));
  check_bool "equal as set" true (Schema.equal_as_set a (Schema.of_list [ 3; 1; 2 ]))

let test_schema_positions () =
  let whole = Schema.of_list [ 10; 20; 30; 40 ] in
  Alcotest.(check (array int)) "positions" [| 2; 0 |]
    (Schema.positions (Schema.of_list [ 30; 10 ]) whole);
  Alcotest.check_raises "missing attr" Not_found (fun () ->
      ignore (Schema.positions (Schema.of_list [ 99 ]) whole))

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)

let test_relation_set_semantics () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  check_int "duplicates merged" 2 (Relation.cardinality r);
  check_bool "mem" true (Relation.mem r (Tuple.of_list [ 2; 1 ]));
  check_bool "add duplicate" false (Relation.add r (Tuple.of_list [ 1; 2 ]));
  check_bool "add new" true (Relation.add r (Tuple.of_list [ 3; 3 ]));
  check_int "after add" 3 (Relation.cardinality r)

let test_relation_arity_mismatch () =
  let r = Relation.create (Schema.of_list [ 0; 1 ]) in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Relation.add: tuple arity 3, schema arity 2") (fun () ->
      ignore (Relation.add r (Tuple.of_list [ 1; 2; 3 ])))

let test_relation_reorder () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let swapped = Relation.reorder r (Schema.of_list [ 1; 0 ]) in
  check_rows "columns swapped" [ [ 2; 1 ]; [ 4; 3 ] ] swapped;
  check_bool "equal modulo order" true (Relation.equal_modulo_order r swapped);
  check_bool "not strictly equal" false (Relation.equal r swapped)

let test_relation_equal_modulo_order_differs () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let s = relation [ 1; 0 ] [ [ 1; 2 ] ] in
  (* Same rows but under swapped column names: v0=1,v1=2 vs v1=1,v0=2. *)
  check_bool "different contents detected" false (Relation.equal_modulo_order r s)

(* ------------------------------------------------------------------ *)
(* Ops: joins                                                          *)

let test_natural_join_basic () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 1; 2 ] [ [ 2; 9 ]; [ 3; 8 ]; [ 7; 7 ] ] in
  let j = Ops.natural_join r s in
  Alcotest.(check (list int)) "output schema" [ 0; 1; 2 ]
    (Schema.attrs (Relation.schema j));
  check_rows "join rows" [ [ 1; 2; 9 ]; [ 2; 3; 8 ] ] j

let test_natural_join_no_shared_is_product () =
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ] ] in
  let s = relation [ 1 ] [ [ 5 ]; [ 6 ] ] in
  check_int "product size" 4 (Relation.cardinality (Ops.natural_join r s));
  check_int "explicit product" 4 (Relation.cardinality (Ops.product r s))

let test_product_rejects_shared () =
  let r = relation [ 0 ] [ [ 1 ] ] in
  Alcotest.check_raises "shared attr"
    (Invalid_argument "Ops.product: schemas intersect") (fun () ->
      ignore (Ops.product r r))

let test_join_empty () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let empty = Relation.create (Schema.of_list [ 1; 2 ]) in
  check_int "join with empty" 0 (Relation.cardinality (Ops.natural_join r empty))

let test_equijoin () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 2; 3 ] [ [ 2; 9 ]; [ 1; 8 ] ] in
  let j = Ops.equijoin ~on:[ (1, 2) ] r s in
  check_rows "equijoin keeps both columns" [ [ 1; 2; 2; 9 ] ] j;
  check_int "empty on = product" 4
    (Relation.cardinality (Ops.equijoin ~on:[] r s))

(* Join properties against small random relations. *)
let small_relation_arbitrary schema_attrs =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 20)
        (list_repeat (List.length schema_attrs) (int_range 0 3))
      >>= fun rows -> return (relation schema_attrs rows))
  in
  QCheck.make
    ~print:(fun r -> Format.asprintf "%a" (Relation.pp ()) r)
    gen

let prop_join_commutative =
  qtest "join commutative (modulo column order)"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      Relation.equal_modulo_order (Ops.natural_join r s) (Ops.natural_join s r))

let prop_join_associative =
  qtest "join associative"
    (QCheck.triple
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 1; 2 ])
       (small_relation_arbitrary [ 2; 3 ]))
    (fun (r, s, t) ->
      Relation.equal_modulo_order
        (Ops.natural_join (Ops.natural_join r s) t)
        (Ops.natural_join r (Ops.natural_join s t)))

let prop_join_idempotent =
  qtest "r |><| r = r" (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      Relation.equal_modulo_order (Ops.natural_join r r) r)

let prop_semijoin_is_filtered_join =
  qtest "semijoin = projection of join"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      let lhs = Ops.semijoin r s in
      let rhs = Ops.project (Ops.natural_join r s) (Relation.schema r) in
      Relation.equal_modulo_order lhs rhs)

let prop_semijoin_antijoin_partition =
  qtest "semijoin + antijoin partition r"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      let semi = Ops.semijoin r s and anti = Ops.antijoin r s in
      Relation.cardinality semi + Relation.cardinality anti
      = Relation.cardinality r
      && Relation.equal_modulo_order (Ops.union semi anti) r)

(* ------------------------------------------------------------------ *)
(* Ops: projection, selection, set ops                                 *)

let test_project () =
  let r = relation [ 0; 1; 2 ] [ [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 5; 6; 7 ] ] in
  let p = Ops.project r (Schema.of_list [ 1; 0 ]) in
  check_rows "projection dedups" [ [ 2; 1 ]; [ 6; 5 ] ] p

let test_project_away () =
  let r = relation [ 0; 1; 2 ] [ [ 1; 2; 3 ] ] in
  let p = Ops.project_away r [ 1; 99 ] in
  Alcotest.(check (list int)) "kept attrs" [ 0; 2 ]
    (Schema.attrs (Relation.schema p));
  check_rows "kept values" [ [ 1; 3 ] ] p

let test_select () =
  let r = relation [ 0; 1 ] [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ] ] in
  check_rows "select_eq" [ [ 1; 1 ]; [ 1; 2 ] ] (Ops.select_eq r 0 1);
  check_rows "select_attr_eq" [ [ 1; 1 ]; [ 2; 2 ] ] (Ops.select_attr_eq r 0 1)

let test_rename () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let renamed = Ops.rename r [ (0, 10); (1, 0) ] in
  Alcotest.(check (list int)) "simultaneous rename" [ 10; 0 ]
    (Schema.attrs (Relation.schema renamed));
  check_rows "tuples preserved" [ [ 1; 2 ] ] renamed

let test_set_operations () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let s = relation [ 1; 0 ] [ [ 2; 1 ]; [ 5; 6 ] ] in
  (* s's rows, aligned to r's schema: (1,2) and (6,5). *)
  check_rows "union aligns schemas" [ [ 1; 2 ]; [ 3; 4 ]; [ 6; 5 ] ] (Ops.union r s);
  check_rows "inter" [ [ 1; 2 ] ] (Ops.inter r s);
  check_rows "diff" [ [ 3; 4 ] ] (Ops.diff r s);
  Alcotest.check_raises "incompatible union"
    (Invalid_argument "Ops.union: schemas are not permutations of each other")
    (fun () -> ignore (Ops.union r (relation [ 0; 2 ] [])))

let prop_projection_monotone =
  qtest "projection never grows cardinality" (small_relation_arbitrary [ 0; 1 ])
    (fun r ->
      Relation.cardinality (Ops.project r (Schema.of_list [ 0 ]))
      <= Relation.cardinality r)

let prop_select_project_commute =
  qtest "selection commutes with projection on kept attrs"
    (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      let keep = Schema.of_list [ 0 ] in
      Relation.equal_modulo_order
        (Ops.project (Ops.select_eq r 0 1) keep)
        (Ops.select_eq (Ops.project r keep) 0 1))

let prop_equijoin_is_renamed_natural_join =
  qtest "equijoin = natural join after aligning names"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 2; 3 ]))
    (fun (r, s) ->
      (* Join r.1 = s.2 explicitly, vs renaming s.2 to 1 and joining
         naturally (then renaming back and reordering). *)
      let explicit = Ops.equijoin ~on:[ (1, 2) ] r s in
      let renamed = Ops.rename s [ (2, 1) ] in
      let natural = Ops.natural_join r renamed in
      (* The natural join merges the join column; the equijoin keeps
         both copies. Compare on the merged view. *)
      let merged_view =
        Ops.project explicit (Schema.of_list [ 0; 1; 3 ])
      in
      Relation.equal_modulo_order merged_view natural)

let prop_rename_roundtrip =
  qtest "rename there and back is the identity"
    (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      Relation.equal r (Ops.rename (Ops.rename r [ (0, 7); (1, 8) ]) [ (7, 0); (8, 1) ]))

let prop_union_laws =
  qtest "union is commutative, associative, idempotent"
    (QCheck.triple
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 0; 1 ]))
    (fun (a, b, c) ->
      Relation.equal_modulo_order (Ops.union a b) (Ops.union b a)
      && Relation.equal_modulo_order
           (Ops.union (Ops.union a b) c)
           (Ops.union a (Ops.union b c))
      && Relation.equal_modulo_order (Ops.union a a) a)

let prop_inter_via_diff =
  qtest "a /\\ b = a \\ (a \\ b)"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 0; 1 ]))
    (fun (a, b) ->
      Relation.equal_modulo_order (Ops.inter a b) (Ops.diff a (Ops.diff a b)))

let prop_project_composition =
  qtest "projection composes" (small_relation_arbitrary [ 0; 1; 2 ]) (fun r ->
      Relation.equal
        (Ops.project (Ops.project r (Schema.of_list [ 0; 1 ])) (Schema.of_list [ 0 ]))
        (Ops.project r (Schema.of_list [ 0 ])))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let test_io_roundtrip () =
  let r = relation [ 3; 1; 7 ] [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  let back = Relalg.Io.of_string (Relalg.Io.to_string r) in
  check_bool "identical" true (Relation.equal r back)

let prop_io_roundtrip =
  qtest "to_string/of_string round trip" (small_relation_arbitrary [ 0; 1 ])
    (fun r -> Relation.equal r (Relalg.Io.of_string (Relalg.Io.to_string r)))

let test_io_zero_ary () =
  let t = Relation.create Relalg.Schema.empty in
  ignore (Relation.add t (Tuple.of_list []));
  let back = Relalg.Io.of_string (Relalg.Io.to_string t) in
  check_int "0-ary tuple survives" 1 (Relation.cardinality back);
  check_int "arity" 0 (Relation.arity back)

let test_io_file_roundtrip () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let path = Filename.temp_file "relalg" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Relalg.Io.save path r;
      check_bool "file round trip" true (Relation.equal r (Relalg.Io.load path)))

let prop_io_corruption_fails_cleanly =
  (* Fuzz: flip one byte of a serialized relation; the loader either
     still parses (the flip hit a digit) or fails with a diagnostic —
     never any other exception. *)
  qtest ~count:100 "corrupted input fails cleanly"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (QCheck.int_range 0 10_000))
    (fun (r, seed) ->
      let text = Relalg.Io.to_string r in
      if String.length text = 0 then true
      else begin
        let rng = rng seed in
        let bytes = Bytes.of_string text in
        let pos = Graphlib.Rng.int rng (Bytes.length bytes) in
        Bytes.set bytes pos (Char.chr (32 + Graphlib.Rng.int rng 95));
        match Relalg.Io.of_string (Bytes.to_string bytes) with
        | _ -> true
        | exception (Failure _ | Invalid_argument _) -> true
      end)

let test_io_rejects_garbage () =
  Alcotest.check_raises "bad header" (Failure "Io: malformed header: \"a\\tb\"")
    (fun () -> ignore (Relalg.Io.of_string "a\tb\n1\t2\n"));
  Alcotest.check_raises "bad row" (Failure "Io: malformed row: \"1\\tx\"")
    (fun () -> ignore (Relalg.Io.of_string "0\t1\n1\tx\n"))

(* ------------------------------------------------------------------ *)
(* Limits and stats                                                    *)

let test_limits_cardinality () =
  let limits = Relalg.Limits.create ~max_tuples:3 ~max_total:1000 () in
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  let s = relation [ 1 ] [ [ 1 ] ] in
  Alcotest.check_raises "per-relation cap"
    (Relalg.Limits.Abort (Relalg.Limits.Cardinality 4)) (fun () ->
      ignore (Ops.natural_join ~ctx:(Relalg.Ctx.create ~limits ()) r s))

let test_limits_total () =
  let limits = Relalg.Limits.create ~max_tuples:1000 ~max_total:5 () in
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let s = relation [ 1 ] [ [ 1 ]; [ 2 ] ] in
  Alcotest.check_raises "total budget"
    (Relalg.Limits.Abort Relalg.Limits.Tuple_budget) (fun () ->
      ignore (Ops.natural_join ~ctx:(Relalg.Ctx.create ~limits ()) r s))

let test_stats_recording () =
  let stats = Relalg.Stats.create () in
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 1; 2 ] [ [ 2; 9 ] ] in
  let ctx = Relalg.Ctx.create ~stats () in
  let j = Ops.natural_join ~ctx r s in
  ignore (Ops.project ~ctx j (Schema.of_list [ 0 ]));
  check_int "joins" 1 (Relalg.Stats.joins stats);
  check_int "projections" 1 (Relalg.Stats.projections stats);
  check_int "max arity" 3 (Relalg.Stats.max_arity stats);
  check_int "produced" 2 (Relalg.Stats.tuples_produced stats);
  Relalg.Stats.reset stats;
  check_int "reset" 0 (Relalg.Stats.max_arity stats)

(* ------------------------------------------------------------------ *)
(* Arena: the columnar store's tuple arena, exercised directly at its
   edge cases (degenerate arities and enough rows to force both data
   growth and index rehashes).                                          *)

module Arena = Relalg.Arena

(* Arena storage holding [cells], for feeding [Ops.dedup] directly. *)
let data_of_array cells : Arena.data = Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout cells

let no_data = data_of_array [||]

let test_arena_zero_ary () =
  let a = Arena.create 0 in
  check_bool "first add" true (Arena.add a [||]);
  check_bool "duplicate" false (Arena.add a [||]);
  check_int "one row" 1 (Arena.count a);
  check_bool "mem" true (Arena.mem a [||]);
  check_bool "wrong arity" false (Arena.mem a [| 1 |])

let test_arena_wide_rows () =
  (* Arity past any small-tuple fast path. *)
  let arity = 20 in
  let a = Arena.create arity in
  let row k = Array.init arity (fun j -> (k * 31) + j) in
  for k = 0 to 99 do
    check_bool "fresh row" true (Arena.add a (row k))
  done;
  for k = 0 to 99 do
    check_bool "duplicate row" false (Arena.add a (row k))
  done;
  check_int "count" 100 (Arena.count a);
  check_bool "mem wide" true (Arena.mem a (row 57));
  Alcotest.(check (list int)) "read back" (Array.to_list (row 42))
    (Array.to_list (Arena.read a 42))

let test_arena_many_rows () =
  (* > 64k distinct rows: the data array grows and the open-addressing
     index rehashes several times; dedup must survive both. *)
  let n = 70_000 in
  let a = Arena.create ~size_hint:16 2 in
  for k = 0 to n - 1 do
    ignore (Arena.add a [| k; k * 7 |])
  done;
  check_int "all distinct" n (Arena.count a);
  for k = 0 to n - 1 do
    if Arena.add a [| k; k * 7 |] then
      Alcotest.failf "row %d re-inserted after rehash" k
  done;
  check_int "still deduped" n (Arena.count a);
  check_bool "mem early" true (Arena.mem a [| 0; 0 |]);
  check_bool "mem late" true (Arena.mem a [| n - 1; (n - 1) * 7 |]);
  check_bool "absent" false (Arena.mem a [| n; n * 7 |]);
  let sum = Arena.fold (fun row acc -> acc + row.(0)) a 0 in
  check_int "fold visits every row" (n * (n - 1) / 2) sum

(* Projection's dedup: the first of two rows equal on the kept columns
   is kept, the second dropped. *)
let test_project_dedup () =
  let sub = Schema.of_list [ 0; 1; 2 ] in
  let projected rows = Ops.project (relation [ 0; 1; 2; 3 ] rows) sub in
  check_int "kept" 1 (Relation.cardinality (projected [ [ 1; 2; 3; 0 ] ]));
  let r = projected [ [ 1; 2; 3; 0 ]; [ 1; 2; 3; 1 ] ] in
  check_int "duplicate dropped: count" 1 (Relation.cardinality r);
  check_bool "mem" true (Relation.mem r [| 1; 2; 3 |])

(* Model test for the lazy dedup index: random sequences of inserts,
   in-place fills of extended rows (which skip the index), membership
   probes and copies against a plain list of rows. Fills between probes
   leave rows unindexed, so every [add] and [mem] after one exercises
   the incremental catch-up; small arenas grow and rehash
   on the way. Extensions come one row at a time, as random row lists,
   and as [n] rows drawn outside the other ops' value range, which
   resize the data array exactly. *)

type arena_op =
  | Op_add of int array
  | Op_extend_one of int array
  | Op_mem of int array
  | Op_extend_new of int
  | Op_extend of int array list
  | Op_copy

let print_arena_op =
  let row r = QCheck.Print.(array int) r in
  function
  | Op_add r -> "add " ^ row r
  | Op_extend_one r -> "extend one " ^ row r
  | Op_mem r -> "mem " ^ row r
  | Op_extend_new n -> Printf.sprintf "extend %d new rows" n
  | Op_extend rs -> "extend " ^ QCheck.Print.list row rs
  | Op_copy -> "copy"

let arena_ops_arbitrary arity =
  (* Arity 1 draws from 41 values, so its arenas outgrow the first
     index; wider rows draw from 4 values per column. *)
  let hi = if arity = 1 then 40 else 3 in
  let row = QCheck.Gen.(array_repeat arity (int_range 0 hi)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun r -> Op_add r) row);
          (4, map (fun r -> Op_extend_one r) row);
          (3, map (fun r -> Op_mem r) row);
          (1, map (fun n -> Op_extend_new n) (int_range 0 40));
          (2, map (fun rs -> Op_extend rs) (list_size (int_range 0 6) row));
          (1, return Op_copy);
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(list print_arena_op)
    QCheck.Gen.(list_size (int_range 0 200) op)

let run_arena_model arity ops =
  let a = ref (Arena.create ~size_hint:1 arity) in
  let model = ref [] and filled = ref [] in
  let present r = List.mem r !model in
  (* [extend] requires rows pairwise distinct and not yet present; they
     are filled in place after the count has moved. *)
  let extend_fill rs =
    let fresh =
      List.fold_left
        (fun acc r -> if present r || List.mem r acc then acc else r :: acc)
        [] rs
    in
    let n = List.length fresh in
    let first = Arena.count !a in
    let base = Arena.extend !a n in
    List.iteri
      (fun i r ->
        Array.iteri (fun j v -> Bigarray.Array1.set (Arena.data !a) (base + (i * arity) + j) v) r)
      fresh;
    model := fresh @ !model;
    filled := fresh @ !filled;
    Arena.count !a = first + n
    && base = first * arity
    && List.for_all2 (fun i r -> Arena.read !a (first + i) = r)
         (List.init n Fun.id) fresh
  in
  let fresh_serial = ref 0 in
  let step = function
    | Op_add r ->
      let fresh = not (present r) in
      if fresh then model := r :: !model;
      Arena.add !a r = fresh
    | Op_extend_one r -> extend_fill [ r ]
    | Op_mem r -> Arena.mem !a r = present r
    | Op_extend_new n ->
      (* Values above every other op's range: new unless arity is 0. *)
      let rows =
        List.init n (fun _ ->
            incr fresh_serial;
            Array.make arity (100 + !fresh_serial))
      in
      let before = List.init (Arena.count !a) (Arena.read !a) in
      extend_fill rows
      && List.for_all2 (fun i r -> Arena.read !a i = r)
           (List.init (List.length before) Fun.id) before
    | Op_extend rs -> extend_fill rs
    | Op_copy ->
      a := Arena.copy !a;
      true
  in
  List.for_all (fun op -> step op && Arena.count !a = List.length !model) ops
  && List.for_all (fun r -> Arena.mem !a r) !model
  && List.for_all (fun r -> not (Arena.add !a r)) !filled
  && Arena.count !a = List.length !model

let prop_arena_lazy_index arity =
  qtest ~count:200
    (Printf.sprintf "lazy index = list model (arity %d)" arity)
    (arena_ops_arbitrary arity) (run_arena_model arity)

(* The dedup kernel against a list model: projecting rows drawn with
   many repeats in the kept columns keeps each distinct row once, in
   the order of its first occurrence. *)
let prop_project_first_occurrence arity =
  let hi = if arity = 1 then 40 else 3 in
  qtest ~count:200
    (Printf.sprintf "project = first-occurrence list model (arity %d)" arity)
    QCheck.(
      make
        ~print:Print.(list (list int))
        Gen.(list_size (int_range 0 200) (list_repeat (arity + 1) (int_range 0 hi))))
    (fun rows ->
      let r = relation (List.init (arity + 1) Fun.id) rows in
      let input = List.init (Relation.cardinality r) (Arena.read (Relation.arena r)) in
      let model =
        List.fold_left
          (fun acc row ->
            let kept = Array.sub row 0 arity in
            if List.mem kept acc then acc else kept :: acc)
          [] input
        |> List.rev
      in
      let p = Ops.project r (Schema.of_list (List.init arity Fun.id)) in
      List.init (Relation.cardinality p) (Arena.read (Relation.arena p)) = model)

(* ------------------------------------------------------------------ *)
(* Cursor: the pull-based answer stream                                *)

module Cursor = Relalg.Cursor

let tup = Tuple.of_list
let s2 = Schema.of_list [ 0; 1 ]

let test_cursor_of_seq_basics () =
  let c = Cursor.of_seq ~schema:s2 (List.to_seq [ tup [ 1; 2 ]; tup [ 3; 4 ] ]) in
  check_bool "schema kept" true (Cursor.schema c = s2);
  check_bool "not closed while pending" false (Cursor.closed c);
  Alcotest.(check (option (list int))) "first" (Some [ 1; 2 ])
    (Option.map Tuple.to_list (Cursor.next c));
  Alcotest.(check (option (list int))) "second" (Some [ 3; 4 ])
    (Option.map Tuple.to_list (Cursor.next c));
  Alcotest.(check (option (list int))) "exhausted" None
    (Option.map Tuple.to_list (Cursor.next c));
  check_bool "closes itself at exhaustion" true (Cursor.closed c);
  Alcotest.(check (option (list int))) "stays exhausted" None
    (Option.map Tuple.to_list (Cursor.next c));
  check_int "yielded counts handed-out tuples" 2 (Cursor.yielded c)

let test_cursor_of_iter_is_lazy () =
  (* The producer must not run before the first pull, and must suspend
     between emissions rather than running ahead. *)
  let emitted = ref 0 in
  let produce emit =
    List.iter
      (fun r ->
        incr emitted;
        emit (tup r))
      [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ]
  in
  let c = Cursor.of_iter ~schema:s2 produce in
  check_int "producer has not started" 0 !emitted;
  ignore (Cursor.next c);
  check_int "suspended after the first emission" 1 !emitted;
  ignore (Cursor.next c);
  check_int "resumed exactly once per pull" 2 !emitted;
  Cursor.close c;
  check_int "abandoning the cursor abandons the fiber" 2 !emitted;
  Alcotest.(check (option (list int))) "closed cursor yields nothing" None
    (Option.map Tuple.to_list (Cursor.next c))

let test_cursor_dedup_first_seen_order () =
  let rows = [ [ 2; 2 ]; [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 1; 1 ] ] in
  let c =
    Cursor.of_seq ~dedup:true ~schema:s2 (List.to_seq (List.map tup rows))
  in
  let got = List.map Tuple.to_list (Cursor.take c 10) in
  Alcotest.(check (list (list int))) "distinct, first-seen order"
    [ [ 2; 2 ]; [ 1; 1 ]; [ 3; 3 ] ]
    got

let test_cursor_take_paginates () =
  let rows = List.init 5 (fun i -> [ i; i ]) in
  let c = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  Alcotest.(check (list (list int))) "first page" [ [ 0; 0 ]; [ 1; 1 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  check_bool "cursor survives a full page" false (Cursor.closed c);
  Alcotest.(check (list (list int))) "second page continues" [ [ 2; 2 ]; [ 3; 3 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  Alcotest.(check (list (list int))) "short last page" [ [ 4; 4 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  check_bool "exhaustion closes" true (Cursor.closed c);
  Alcotest.(check (list (list int))) "empty page after the end" []
    (List.map Tuple.to_list (Cursor.take c 2))

let test_cursor_close_runs_hook_once () =
  let closes = ref 0 in
  let c =
    Cursor.of_seq ~on_close:(fun () -> incr closes) ~schema:s2
      (List.to_seq [ tup [ 1; 2 ] ])
  in
  Cursor.close c;
  Cursor.close c;
  check_int "hook runs once" 1 !closes;
  (* exhaustion also runs the hook exactly once *)
  let closes' = ref 0 in
  let c' =
    Cursor.of_seq ~on_close:(fun () -> incr closes') ~schema:s2
      (List.to_seq [ tup [ 1; 2 ] ])
  in
  Cursor.iter (fun _ -> ()) c';
  Cursor.close c';
  check_int "exhaustion counts as the close" 1 !closes'

let test_cursor_to_relation_roundtrip () =
  let rows = [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 2 ] ] in
  let c =
    Cursor.of_seq ~dedup:true ~schema:s2 (List.to_seq (List.map tup rows))
  in
  let rel = Cursor.to_relation c in
  check_bool "schema carried over" true (Relation.schema rel = s2);
  check_rows "distinct rows materialized" [ [ 1; 2 ]; [ 3; 4 ] ] rel;
  check_bool "drain closes" true (Cursor.closed c)

let test_cursor_top_k () =
  let rows = [ [ 5; 0 ]; [ 1; 0 ]; [ 4; 0 ]; [ 2; 0 ]; [ 3; 0 ] ] in
  let c = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  let top = Cursor.top_k ~compare:Tuple.compare c 3 in
  Alcotest.(check (list (list int))) "k least, ascending"
    [ [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ] ]
    (List.map Tuple.to_list top);
  (* k larger than the stream degrades to a full sort *)
  let c' = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  check_int "k past the end returns everything" 5
    (List.length (Cursor.top_k ~compare:Tuple.compare c' 10));
  (* the heap grows with the answer: k = max_int over three rows sorts
     them without asking for k slots *)
  let three =
    Cursor.of_seq ~schema:s2
      (List.to_seq (List.map tup [ [ 9; 0 ]; [ 7; 0 ]; [ 8; 0 ] ]))
  in
  Alcotest.(check (list (list int))) "k = max_int is a full sort"
    [ [ 7; 0 ]; [ 8; 0 ]; [ 9; 0 ] ]
    (List.map Tuple.to_list (Cursor.top_k ~compare:Tuple.compare three max_int));
  (* past the first growth step, evicting once k is reached *)
  let many = List.init 40 (fun i -> [ (i * 17) mod 40; 0 ]) in
  let c'' = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup many)) in
  Alcotest.(check (list (list int))) "k = 25 of 40"
    (List.init 25 (fun i -> [ i; 0 ]))
    (List.map Tuple.to_list (Cursor.top_k ~compare:Tuple.compare c'' 25))

let test_cursor_producer_exception_closes () =
  let closes = ref 0 in
  let produce emit =
    emit (tup [ 1; 1 ]);
    failwith "producer blew up"
  in
  let c =
    Cursor.of_iter ~on_close:(fun () -> incr closes) ~schema:s2 produce
  in
  Alcotest.(check (option (list int))) "first tuple fine" (Some [ 1; 1 ])
    (Option.map Tuple.to_list (Cursor.next c));
  (match Cursor.next c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the producer exception to propagate");
  check_bool "cursor closed before raising" true (Cursor.closed c);
  check_int "close hook ran" 1 !closes

let cursor_suite =
  ( "cursor",
    [
      Alcotest.test_case "of_seq basics" `Quick test_cursor_of_seq_basics;
      Alcotest.test_case "of_iter is lazy" `Quick test_cursor_of_iter_is_lazy;
      Alcotest.test_case "dedup keeps first-seen order" `Quick
        test_cursor_dedup_first_seen_order;
      Alcotest.test_case "take paginates" `Quick test_cursor_take_paginates;
      Alcotest.test_case "close hook runs once" `Quick
        test_cursor_close_runs_hook_once;
      Alcotest.test_case "to_relation roundtrip" `Quick
        test_cursor_to_relation_roundtrip;
      Alcotest.test_case "top_k" `Quick test_cursor_top_k;
      Alcotest.test_case "producer exception closes" `Quick
        test_cursor_producer_exception_closes;
    ] )

(* ------------------------------------------------------------------ *)
(* Kernel = oracle: each operator pipeline, run through the arena
   kernels, yields exactly what the nested-loop list evaluator in
   [Helpers.Oracle] computes from the same raw rows.                   *)

let rows_arbitrary =
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    QCheck.Gen.(list_size (int_range 0 30) (list_repeat 2 (int_range 0 5)))

let prop_kernel_matches_oracle name ~r_attrs ~s_attrs kernel oracle =
  qtest ("kernel = oracle: " ^ name) (QCheck.pair rows_arbitrary rows_arbitrary)
    (fun (rows_r, rows_s) ->
      let r = relation r_attrs rows_r and s = relation s_attrs rows_s in
      Oracle.of_relation (kernel r s)
      = oracle (Oracle.make r_attrs rows_r) (Oracle.make s_attrs rows_s))

let oracle_suite =
  let r_attrs = [ 0; 1 ] and s_attrs = [ 1; 2 ] in
  ( "kernel = oracle",
    [
      prop_kernel_matches_oracle "natural join" ~r_attrs ~s_attrs
        (fun r s -> Ops.natural_join r s)
        Oracle.join;
      prop_kernel_matches_oracle "two-attribute key" ~r_attrs ~s_attrs:[ 1; 0 ]
        (fun r s -> Ops.natural_join r s)
        Oracle.join;
      prop_kernel_matches_oracle "disjoint schemas (product)" ~r_attrs
        ~s_attrs:[ 2; 3 ]
        (fun r s -> Ops.natural_join r s)
        Oracle.join;
      prop_kernel_matches_oracle "join then project" ~r_attrs ~s_attrs
        (fun r s ->
          Ops.project (Ops.natural_join r s) (Schema.of_list [ 0; 2 ]))
        (fun r s -> Oracle.project (Oracle.join r s) [ 0; 2 ]);
      prop_kernel_matches_oracle "semijoin" ~r_attrs ~s_attrs
        (fun r s -> Ops.semijoin r s)
        Oracle.semijoin;
      prop_kernel_matches_oracle "antijoin" ~r_attrs ~s_attrs
        (fun r s -> Ops.antijoin r s)
        Oracle.antijoin;
      prop_kernel_matches_oracle "union (renamed, permuted)" ~r_attrs ~s_attrs
        (fun r s -> Ops.union r (Ops.rename s [ (2, 0) ]))
        (fun r s -> Oracle.union r (Oracle.rename s [ (2, 0) ]));
    ] )

(* Fixed shapes the random pairs above rarely or never produce: empty
   and 0-ary inputs, identical and nested schemas, a heavy-hitter key,
   wide rows, and values outside the small non-negative range. Every
   operator pipeline runs on every shape, one case each. *)

let seeded_rows ~seed ~n ~arity ~range =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ -> List.init arity (fun _ -> Random.State.int st range))

let fixtures =
  [
    ("both empty", ([ 0; 1 ], []), ([ 1; 2 ], []));
    ("empty right", ([ 0; 1 ], [ [ 1; 2 ]; [ 3; 4 ] ]), ([ 1; 2 ], []));
    ( "one shared attribute",
      ([ 0; 1 ], [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ]; [ 4; 5 ] ]),
      ([ 1; 2 ], [ [ 2; 7 ]; [ 3; 8 ]; [ 3; 9 ]; [ 6; 6 ] ]) );
    ( "same schema",
      ([ 0; 1 ], [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ] ]),
      ([ 0; 1 ], [ [ 1; 2 ]; [ 2; 1 ]; [ 3; 3 ] ]) );
    ( "same attributes, permuted",
      ([ 0; 1 ], [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]),
      ([ 1; 0 ], [ [ 2; 1 ]; [ 2; 3 ]; [ 3; 3 ] ]) );
    ( "nested schema",
      ([ 0; 1; 2 ], seeded_rows ~seed:1 ~n:40 ~arity:3 ~range:4),
      ([ 2; 0 ], seeded_rows ~seed:2 ~n:8 ~arity:2 ~range:4) );
    ( "disjoint schemas",
      ([ 0; 1 ], [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]),
      ([ 2; 3 ], [ [ 7; 8 ]; [ 9; 9 ] ]) );
    ( "heavy-hitter key",
      ([ 0; 1 ], List.init 50 (fun i -> [ i; 0 ]) @ [ [ 0; 1 ]; [ 1; 2 ] ]),
      ([ 1; 2 ], List.init 20 (fun j -> [ 0; j ]) @ [ [ 2; 5 ]; [ 9; 9 ] ]) );
    ("0-ary true", ([], [ [] ]), ([ 0; 1 ], [ [ 1; 2 ]; [ 2; 2 ] ]));
    ("0-ary false", ([], []), ([ 0; 1 ], [ [ 1; 2 ]; [ 2; 2 ] ]));
    ( "wide rows",
      ([ 0; 1; 2; 3; 4; 5 ], seeded_rows ~seed:3 ~n:60 ~arity:6 ~range:3),
      ([ 3; 4; 5; 6; 7; 8 ], seeded_rows ~seed:4 ~n:60 ~arity:6 ~range:3) );
    ( "negative and large values",
      ([ 0; 1 ], [ [ -1; max_int ]; [ min_int; -7 ]; [ 0; 0 ]; [ -1; 0 ] ]),
      ([ 1; 2 ], [ [ max_int; min_int ]; [ -7; -1 ]; [ 0; max_int ] ]) );
  ]

(* Every other attribute of the join's schema — a projection that is
   neither the identity nor either input's schema on most shapes. *)
let alternate attrs = List.filteri (fun i _ -> i mod 2 = 0) attrs

let pipelines =
  [
    ("join", (fun r s -> Ops.natural_join r s), Oracle.join);
    ("join (swapped)", (fun r s -> Ops.natural_join s r), fun r s -> Oracle.join s r);
    ("semijoin", (fun r s -> Ops.semijoin r s), Oracle.semijoin);
    ( "semijoin (swapped)",
      (fun r s -> Ops.semijoin s r),
      fun r s -> Oracle.semijoin s r );
    ("antijoin", (fun r s -> Ops.antijoin r s), Oracle.antijoin);
    ( "antijoin (swapped)",
      (fun r s -> Ops.antijoin s r),
      fun r s -> Oracle.antijoin s r );
    ( "join then project",
      (fun r s ->
        let j = Ops.natural_join r s in
        Ops.project j
          (Schema.of_list (alternate (Schema.attrs (Relation.schema j))))),
      fun r s ->
        let j = Oracle.join r s in
        Oracle.project j (alternate j.attrs) );
    ( "product after renaming apart",
      (fun r s ->
        let apart = List.map (fun a -> (a, a + 100)) (Schema.attrs (Relation.schema s)) in
        Ops.natural_join r (Ops.rename s apart)),
      fun r s ->
        Oracle.join r (Oracle.rename s (List.map (fun a -> (a, a + 100)) s.attrs)) );
  ]

let fixture_case (pname, kernel, oracle)
    (fname, (r_attrs, rows_r), (s_attrs, rows_s)) =
  Alcotest.test_case (pname ^ ": " ^ fname) `Quick (fun () ->
      let expected = oracle (Oracle.make r_attrs rows_r) (Oracle.make s_attrs rows_s) in
      let got =
        Oracle.of_relation (kernel (relation r_attrs rows_r) (relation s_attrs rows_s))
      in
      Alcotest.(check (list int)) "schema" expected.Oracle.attrs got.Oracle.attrs;
      Alcotest.(check (list (list int))) "rows" expected.rows got.rows)

let fixture_suite =
  ( "kernel = oracle (fixtures)",
    List.concat_map
      (fun pipeline -> List.map (fixture_case pipeline) fixtures)
      pipelines )

(* ------------------------------------------------------------------ *)
(* Bulk settling: [Limits.charge_rows] and the kernels that use it.    *)

module Limits = Relalg.Limits

(* Budgets for the bulk-settle properties: each cap is small or
   unlimited ([max_int], where [unlimited]'s headroom saturates), and
   part of the run budget is spent before the operator. *)
type budget = { max_tuples : int; max_total : int; spent : int }

let budget_gen =
  QCheck.Gen.(
    let cap = frequency [ (4, int_range 0 50); (1, return max_int) ] in
    map3
      (fun max_tuples max_total spent -> { max_tuples; max_total; spent })
      cap cap (int_range 0 60))

let print_budget b =
  Printf.sprintf "max_tuples %d, max_total %d, spent %d" b.max_tuples
    b.max_total b.spent

let fresh_limits b =
  let l = Limits.create ~max_tuples:b.max_tuples ~max_total:b.max_total () in
  Limits.charge l (min b.spent b.max_total);
  l

(* The reason [f] raises on [l] (or none), and the total it leaves. *)
let outcome l f =
  let r = match f l with () -> None | exception Limits.Abort r -> Some r in
  (r, Limits.total_charged l)

(* What charging a fresh output of [n] rows one at a time does. *)
let per_row n l =
  for i = 1 to n do
    Limits.charge l 1;
    Limits.check_cardinality l i
  done

(* [Limits.charge_rows] is [n] rounds of per-row charging, settled at
   once: the same reason (or none) and the same total, for [n] up to
   three times the smaller cap. *)
let prop_charge_rows_per_row =
  let arb =
    QCheck.make
      ~print:(fun (b, n) -> Printf.sprintf "%s, n %d" (print_budget b) n)
      QCheck.Gen.(
        budget_gen >>= fun b ->
        let cap = min b.max_tuples b.max_total in
        let hi = if cap = max_int then 150 else 3 * max 1 cap in
        map (fun n -> (b, n)) (int_range 0 hi))
  in
  qtest ~count:500 "charge_rows = per-row charging" arb (fun (b, n) ->
      outcome (fresh_limits b) (fun l -> Limits.charge_rows l n)
      = outcome (fresh_limits b) (per_row n))

(* Every bulk-settled kernel under random limits, on the random pairs of
   [rows_arbitrary] and the fixed shapes of [fixtures] (a heavy-hitter
   key among them): it returns the oracle's rows, or raises what
   charging the oracle's row count one row at a time raises, and leaves
   the same total charged either way. *)
let parity r = List.fold_left ( + ) 0 r land 1 = 0

let bulk_kernels =
  [
    ("join", (fun ctx r s -> Ops.natural_join ~ctx r s), Oracle.join);
    ("semijoin", (fun ctx r s -> Ops.semijoin ~ctx r s), Oracle.semijoin);
    ("antijoin", (fun ctx r s -> Ops.antijoin ~ctx r s), Oracle.antijoin);
    ( "select",
      (fun ctx r _ ->
        Ops.select ~ctx r (fun t -> parity (Tuple.to_list t))),
      fun r _ -> Oracle.make r.Oracle.attrs (List.filter parity r.rows) );
  ]

let prop_kernels_under_limits =
  let inputs =
    QCheck.Gen.(
      frequency
        [
          ( 1,
            map2
              (fun rr rs -> (([ 0; 1 ], rr), ([ 1; 2 ], rs)))
              (QCheck.gen rows_arbitrary) (QCheck.gen rows_arbitrary) );
          (1, map (fun (_, r, s) -> (r, s)) (oneofl fixtures));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun (k, ((ra, rr), (sa, sr)), b) ->
        Printf.sprintf "%s; r %s = %s; s %s = %s; %s" k
          QCheck.Print.(list int ra) QCheck.Print.(list (list int) rr)
          QCheck.Print.(list int sa) QCheck.Print.(list (list int) sr)
          (print_budget b))
      QCheck.Gen.(
        triple
          (oneofl (List.map (fun (k, _, _) -> k) bulk_kernels))
          inputs budget_gen)
  in
  qtest ~count:500 "bulk-settled kernels = oracle under limits" arb
    (fun (k, ((r_attrs, rows_r), (s_attrs, rows_s)), b) ->
      let _, kernel, oracle =
        List.find (fun (k', _, _) -> k' = k) bulk_kernels
      in
      let expected =
        oracle (Oracle.make r_attrs rows_r) (Oracle.make s_attrs rows_s)
      in
      let got = ref None in
      let run l =
        let ctx = Relalg.Ctx.create ~limits:l () in
        got :=
          Some
            (Oracle.of_relation
               (kernel ctx (relation r_attrs rows_r) (relation s_attrs rows_s)))
      in
      let reason, total = outcome (fresh_limits b) run in
      let reason', total' =
        outcome (fresh_limits b) (per_row (List.length expected.Oracle.rows))
      in
      reason = reason' && total = total'
      && (reason <> None || !got = Some expected))

(* The fused join and projection against the unfused pair, on random
   schemas (the empty one, the zero-column witness, disjoint and nested
   ones among them), random rows (none among them) and random keep-sets
   (the empty one among them), under random caps, run budgets and fuel:
   so a guard trips at the join's charge, at the projection's, or at
   either tick. The same rows in the same order, the same abort reason,
   charge, operator count and every [Stats] field; and the fused kernel
   gives all of it again with a 2-domain pool. *)
let fused_pool = lazy (Parallel.Pool.create ~num_domains:2 ~grain:1 ())

let () =
  at_exit (fun () ->
      if Lazy.is_val fused_pool then Parallel.Pool.shutdown (Lazy.force fused_pool))

type fused_case = {
  r_attrs : int list;
  r_rows : int list list;
  s_attrs : int list;
  s_rows : int list list;
  keep : int list;
  budget : budget;
  fuel : int;
}

let fused_case_gen =
  QCheck.Gen.(
    let random =
      let attrs = map (List.filteri (fun i _ -> i < 3)) (shuffle_l [ 0; 1; 2; 3; 4 ]) in
      let schema =
        int_range 0 3 >>= fun k -> map (List.filteri (fun i _ -> i < k)) attrs
      in
      let rows attrs =
        list_size (int_range 0 25) (list_repeat (List.length attrs) (int_range 0 3))
      in
      schema >>= fun r_attrs ->
      schema >>= fun s_attrs ->
      rows r_attrs >>= fun r_rows ->
      rows s_attrs >>= fun s_rows ->
      let union = List.sort_uniq compare (r_attrs @ s_attrs) in
      shuffle_l union >>= fun order ->
      int_range 0 (List.length union) >>= fun k ->
      budget_gen >>= fun budget ->
      frequency [ (1, int_range 0 2); (3, return max_int) ] >>= fun fuel ->
      return
        {
          r_attrs; r_rows; s_attrs; s_rows;
          keep = List.filteri (fun i _ -> i < k) order;
          budget; fuel;
        }
    in
    (* [r(0, 1)] joins [s(1, 2)], the build side, over a 3-value key,
       most often under no cap and in about a third of the cases in
       more matches than the dedup's 2048-candidate partition; the keep
       set picks the fused kernel's path. *)
    let shaped keeps =
      let row a b = map2 (fun x y -> [ x; y ]) (int_range 0 a) (int_range 0 b) in
      list_size (int_range 100 300) (row 199 2) >>= fun r_rows ->
      list_size (int_range 30 60) (row 2 19) >>= fun s_rows ->
      oneofl keeps >>= fun keep ->
      frequency
        [ (1, budget_gen); (3, return { max_tuples = max_int; max_total = max_int; spent = 0 }) ]
      >>= fun budget ->
      frequency [ (1, int_range 0 2); (3, return max_int) ] >>= fun fuel ->
      return { r_attrs = [ 0; 1 ]; r_rows; s_attrs = [ 1; 2 ]; s_rows; keep; budget; fuel }
    in
    frequency
      [
        (3, random);
        (* Every build column kept: no twin, no match deduplicated. *)
        (1, shaped [ [ 0; 1; 2 ]; [ 2; 0; 1 ]; [ 1; 2; 0 ] ]);
        (* Only the key dropped: build rows equal on column 2 are twins. *)
        (1, shaped [ [ 0; 2 ]; [ 2; 0 ] ]);
        (* The probe side drops column 0, no key: every match deduplicated. *)
        (1, shaped [ [ 2 ]; [ 1; 2 ]; [ 2; 1 ]; [ 1 ]; [] ]);
      ])

let print_fused_case c =
  Printf.sprintf "r %s = %s; s %s = %s; keep %s; %s; fuel %d"
    QCheck.Print.(list int c.r_attrs) QCheck.Print.(list (list int) c.r_rows)
    QCheck.Print.(list int c.s_attrs) QCheck.Print.(list (list int) c.s_rows)
    QCheck.Print.(list int c.keep) (print_budget c.budget) c.fuel

(* Rows in arena order, the abort reason, charge, operators run and the
   stats of one evaluation. *)
let fused_outcome ?pool c eval =
  let b = c.budget in
  let limits =
    Limits.create ~max_tuples:b.max_tuples ~max_total:b.max_total ~fuel:c.fuel ()
  in
  Limits.charge limits (min b.spent b.max_total);
  let stats = Relalg.Stats.create () in
  let ctx = Relalg.Ctx.create ~stats ~limits ?pool () in
  let rows =
    match
      eval ctx (relation c.r_attrs c.r_rows) (relation c.s_attrs c.s_rows)
        (Schema.of_list c.keep)
    with
    | out -> Ok (List.init (Relation.cardinality out) (Arena.read (Relation.arena out)))
    | exception Limits.Abort reason -> Error reason
  in
  let module S = Relalg.Stats in
  ( rows,
    Limits.total_charged limits,
    Limits.operators_run limits,
    ( S.joins stats, S.projections stats, S.selections stats,
      S.max_cardinality stats, S.max_arity stats, S.tuples_produced stats ) )

let prop_join_project_is_fused_pair =
  qtest ~count:1000 "join_project = project (natural_join)"
    (QCheck.make ~print:print_fused_case fused_case_gen)
    (fun c ->
      let fused ctx r s sub = Ops.join_project ~ctx r s sub in
      let unfused ctx r s sub = Ops.project ~ctx (Ops.natural_join ~ctx r s) sub in
      let expected = fused_outcome c unfused in
      fused_outcome c fused = expected
      && fused_outcome ~pool:(Lazy.force fused_pool) c fused = expected)

(* The fused kernel reports the join it never wrote: [on_join] hears its
   size, and the trips land where the unfused pair's do (the join's
   charge, the projection's tick). *)
let test_join_project_reports_join () =
  let r = relation [ 0; 1 ] [ [ 1; 1 ]; [ 2; 1 ]; [ 3; 2 ] ] in
  let s = relation [ 1; 2 ] [ [ 1; 5 ]; [ 1; 6 ]; [ 2; 5 ] ] in
  let heard = ref (-1) in
  let out = Ops.join_project ~on_join:(fun n -> heard := n) r s (Schema.of_list [ 2 ]) in
  check_int "on_join hears the join's size" 5 !heard;
  check_rows "the projection" [ [ 5 ]; [ 6 ] ] out;
  let fuel_out = Limits.create ~fuel:1 () in
  Alcotest.check_raises "the projection's tick" (Limits.Abort Limits.Fuel) (fun () ->
      ignore
        (Ops.join_project ~ctx:(Relalg.Ctx.create ~limits:fuel_out ()) r s
           (Schema.of_list [ 2 ])));
  check_int "the join was charged first" 5 (Limits.total_charged fuel_out)

(* A fake clock that passes the deadline only once the operator has
   settled its output (the hook runs after the settle's charges): the
   entry polls read time 0, so the abort can only come from a poll
   inside the fill. *)
let deadline_in_fill op out_rows =
  let late = ref false in
  let limits =
    Limits.create ~deadline_seconds:1.0
      ~clock:(fun () -> if !late then 10.0 else 0.0)
      ()
  in
  Limits.set_hook limits
    (Some (fun ~ops:_ ~total -> if total >= out_rows then late := true));
  Alcotest.check_raises "deadline during the fill"
    (Limits.Abort Limits.Deadline) (fun () ->
      ignore (op (Relalg.Ctx.create ~limits ())));
  check_bool "the clock passed the deadline only after the settle" true !late;
  check_int "the whole output was settled first" out_rows
    (Limits.total_charged limits)

let test_deadline_in_fill () =
  (* 3000 rows, each matching the 2 rows of its key: 6000 out. *)
  let r = relation [ 0; 1 ] (List.init 3000 (fun i -> [ i; i mod 3 ])) in
  let s =
    relation [ 1; 2 ]
      [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ]; [ 2; 0 ]; [ 2; 1 ] ]
  in
  deadline_in_fill (fun ctx -> Ops.natural_join ~ctx r s) 6000;
  (* Every row of [r] has a key in [s]: 3000 kept. *)
  deadline_in_fill (fun ctx -> Ops.semijoin ~ctx r s) 3000

(* ------------------------------------------------------------------ *)
(* The partitioned dedup against the flat dedup it replaced.           *)

(* The oracle: the single-table dedup [Ops.project] and
   [Ops.join_project] used before the partitioned one. Every candidate
   [offer] yields, a pair of an [a] row of [da] and a [b] row of [db], is
   hashed over its kept columns and probed in one open-addressing table
   sized for all [n]; the first occurrence of each distinct candidate is
   recorded. Returns the kept pairs and their count. *)
let flat_dedup ~da ~wa ~ka ~db ~wb ~kb n offer =
  let fnv_seed = 0x1000193 and fnv_prime = 0x100000001b3 in
  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k) in
  let rec keys_equal k d1 b1 k1 d2 b2 k2 =
    k >= Array.length k1
    || Bigarray.Array1.get d1 (b1 + k1.(k)) = Bigarray.Array1.get d2 (b2 + k2.(k))
       && keys_equal (k + 1) d1 b1 k1 d2 b2 k2
  in
  let slot_len = pow2_at_least (max 16 (2 * n)) 16 in
  let mask = slot_len - 1 and slots = Array.make slot_len 0 in
  let first_a = Array.make n 0 in
  let keep_b = Array.length kb > 0 in
  let first_b = if keep_b then Array.make n 0 else [||] in
  let kept = ref 0 in
  offer (fun a b ->
      let abase = a * wa and bbase = b * wb in
      let h = ref fnv_seed in
      for k = 0 to Array.length ka - 1 do
        h := (!h lxor Bigarray.Array1.get da (abase + ka.(k))) * fnv_prime
      done;
      for k = 0 to Array.length kb - 1 do
        h := (!h lxor Bigarray.Array1.get db (bbase + kb.(k))) * fnv_prime
      done;
      let i = ref (!h land max_int land mask) in
      let probing = ref true in
      while !probing do
        let s = slots.(!i) in
        if s = 0 then begin
          first_a.(!kept) <- a;
          if keep_b then first_b.(!kept) <- b;
          incr kept;
          slots.(!i) <- !kept;
          probing := false
        end
        else if
          keys_equal 0 da (first_a.(s - 1) * wa) ka da abase ka
          && ((not keep_b) || keys_equal 0 db (first_b.(s - 1) * wb) kb db bbase kb)
        then probing := false
        else i := (!i + 1) land mask
      done);
  (first_a, first_b, !kept)

(* The kept rows of [rel]'s [positions] columns, by the oracle. *)
let flat_project rel positions =
  let ain = Relation.arena rel in
  let da = Arena.data ain and wa = Arena.arity ain and n = Arena.count ain in
  let first_a, _, kept =
    flat_dedup ~da ~wa ~ka:positions ~db:no_data ~wb:0 ~kb:[||] n (fun add ->
        for row = 0 to n - 1 do
          add row 0
        done)
  in
  List.init kept (fun i ->
      Array.map (fun c -> Bigarray.Array1.get da ((first_a.(i) * wa) + c)) positions)

let rows_of rel = List.init (Relation.cardinality rel) (Arena.read (Relation.arena rel))

(* How a dedup case hashes its candidates; every kind gives equal
   candidates equal hashes, which is all [Ops.dedup] may assume.
   [Spread]: 62 well-mixed bits. [Skewed]: as [Spread], but half the
   distinct candidates have their top bits cleared, so one partition
   holds far more than the rest. [Constant]: one hash for all, so every
   tag matches and only the column comparison tells candidates apart. *)
type hash_kind = Spread | Skewed | Constant

let candidate_hash kind cols =
  let spread =
    ((Hashtbl.seeded_hash 1 cols lsl 32) lxor Hashtbl.seeded_hash 2 cols) land max_int
  in
  match kind with
  | Spread -> spread
  | Skewed -> if spread land 1 = 0 then spread land 0xFF_FFFF_FFFF else spread
  | Constant -> 12345

type dedup_case = {
  kind : hash_kind;
  wa : int;
  da : Arena.data;
  ka : int array;
  wb : int;
  db : Arena.data;
  kb : int array;
  pairs : (int * int) array;
}

let print_dedup_case c =
  Printf.sprintf "%s; wa %d ka %s (%d rows); wb %d kb %s (%d rows); %d candidates"
    (match c.kind with Spread -> "spread" | Skewed -> "skewed" | Constant -> "constant")
    c.wa QCheck.Print.(array int c.ka) (Bigarray.Array1.dim c.da / c.wa)
    c.wb QCheck.Print.(array int c.kb) (Bigarray.Array1.dim c.db / c.wb)
    (Array.length c.pairs)

(* Two row arrays over a 2- or 3-value domain, keep sets of 0 to all of
   each side's columns (so one side only, or neither, among them), and
   20k to 24k candidates: with few kept columns nearly every candidate is
   a duplicate, with many most are distinct; both span 8 to 16
   partitions. A constant hash compares every candidate with every
   earlier distinct one, so it gets at most 600. [~small] draws at most
   2048 candidates instead, one partition with no scatter. *)
let dedup_case_gen ~small =
  QCheck.Gen.(
    let side =
      int_range 1 5 >>= fun w ->
      int_range 2 3 >>= fun dom ->
      int_range 1 80 >>= fun rows ->
      array_repeat (w * rows) (int_range 0 (dom - 1)) >>= fun d ->
      int_range 0 w >>= fun k ->
      shuffle_l (List.init w Fun.id) >>= fun cols ->
      return (w, data_of_array d, Array.of_list (List.filteri (fun i _ -> i < k) cols))
    in
    frequency [ (3, return Spread); (2, return Skewed); (1, return Constant) ]
    >>= fun kind ->
    side >>= fun (wa, da, ka) ->
    side >>= fun (wb, db, kb) ->
    (if kind = Constant then int_range 0 600
     else if small then int_range 0 2048
     else int_range 20_000 24_000)
    >>= fun n ->
    let na = Bigarray.Array1.dim da / wa and nb = Bigarray.Array1.dim db / wb in
    array_repeat n (pair (int_range 0 (na - 1)) (int_range 0 (nb - 1))) >>= fun pairs ->
    return { kind; wa; da; ka; wb; db; kb; pairs })

let prop_dedup_is_flat ~small =
  qtest ~count:60
    (if small then "dedup = flat dedup (at most 2048 candidates)"
     else "dedup = flat dedup (rows in order, kept)")
    (QCheck.make ~print:print_dedup_case (dedup_case_gen ~small))
    (fun c ->
      let n = Array.length c.pairs in
      let expected_a, expected_b, expected =
        flat_dedup ~da:c.da ~wa:c.wa ~ka:c.ka ~db:c.db ~wb:c.wb ~kb:c.kb n (fun add ->
            Array.iter (fun (a, b) -> add a b) c.pairs)
      in
      let a = Array.map fst c.pairs and b = Array.map snd c.pairs in
      let h =
        Array.map
          (fun (a, b) ->
            candidate_hash c.kind
              (Array.to_list (Array.map (fun k -> Bigarray.Array1.get c.da ((a * c.wa) + k)) c.ka)
              @ Array.to_list (Array.map (fun k -> Bigarray.Array1.get c.db ((b * c.wb) + k)) c.kb)))
          c.pairs
      in
      let kept =
        Ops.dedup ~da:c.da ~wa:c.wa ~ka:c.ka ~db:c.db ~wb:c.wb ~kb:c.kb ~a ~b ~h n
      in
      kept = expected
      && Array.sub a 0 kept = Array.sub expected_a 0 kept
      && (Array.length c.kb = 0 || Array.sub b 0 kept = Array.sub expected_b 0 kept))

(* [Ops.project] on 20k to 24k rows: an id column that is dropped and
   five columns over a 3-value domain, of which a random subset (the
   empty one among them) is kept. *)
let prop_project_is_flat =
  qtest ~count:20 "project = flat dedup (20k rows)"
    QCheck.(
      make
        ~print:(fun (n, keep, _) ->
          Printf.sprintf "%d rows, keep %s" n (Print.(list int) keep))
        Gen.(
          int_range 20_000 24_000 >>= fun n ->
          int_range 0 5 >>= fun k ->
          shuffle_l [ 1; 2; 3; 4; 5 ] >>= fun cols ->
          map (fun seed -> (n, List.filteri (fun i _ -> i < k) cols, seed)) int))
    (fun (n, keep, seed) ->
      let st = Random.State.make [| seed |] in
      let r =
        relation [ 0; 1; 2; 3; 4; 5 ]
          (List.init n (fun i -> i :: List.init 5 (fun _ -> Random.State.int st 3)))
      in
      rows_of (Ops.project r (Schema.of_list keep))
      = flat_project r (Array.of_list keep))

(* A 50k-row join of [r(0, 1, 2)] and [s(1, 3, 4)] over a 7-value key,
   projected on a random subset of [{0, 2, 3, 4}]: [r]'s columns only,
   [s]'s only, both or none. The fused kernel gives the oracle's
   projection of the join, and the same rows under a 2-domain pool. *)
let prop_join_project_is_flat =
  qtest ~count:20 "join_project = flat dedup of the join (50k matches)"
    QCheck.(
      make
        ~print:(fun (keep, _) -> Printf.sprintf "keep %s" (Print.(list int) keep))
        Gen.(
          int_range 0 4 >>= fun k ->
          shuffle_l [ 0; 2; 3; 4 ] >>= fun cols ->
          map (fun seed -> (List.filteri (fun i _ -> i < k) cols, seed)) int))
    (fun (keep, seed) ->
      let st = Random.State.make [| seed |] in
      let r = relation [ 0; 1; 2 ] (List.init 1000 (fun i -> [ i; i mod 7; Random.State.int st 3 ])) in
      let s =
        relation [ 1; 3; 4 ]
          (List.init 350 (fun i -> [ i mod 7; i; Random.State.int st 2 ]))
      in
      let sub = Schema.of_list keep in
      let join = Ops.natural_join r s in
      let expected = flat_project join (Schema.positions sub (Relation.schema join)) in
      rows_of (Ops.join_project r s sub) = expected
      && rows_of
           (Ops.join_project ~ctx:(Relalg.Ctx.create ~pool:(Lazy.force fused_pool) ()) r s sub)
         = expected)

(* An empty keep set: one distinct row at most, and every candidate in
   one partition. *)
let test_dedup_empty_keep () =
  let r = relation [ 0; 1 ] (List.init 30_000 (fun i -> [ i; i mod 3 ])) in
  let s = relation [ 1; 2 ] (List.init 6 (fun i -> [ i mod 3; i ])) in
  check_rows "project" [ [] ] (Ops.project r Schema.empty);
  check_rows "join_project" [ [] ] (Ops.join_project r s Schema.empty);
  check_rows "empty input" [] (Ops.project (relation [ 0 ] []) Schema.empty)

(* A skewed input: 20k of 24k rows share their kept columns, so their
   partition holds far more candidates than any other; the other 4k
   are distinct. *)
let test_dedup_skewed () =
  let r =
    relation [ 0; 1; 2 ]
      (List.init 24_000 (fun i -> if i < 20_000 then [ i; 7; 7 ] else [ i; i; -i ]))
  in
  let keep = [| 1; 2 |] in
  let out = Ops.project r (Schema.of_list [ 1; 2 ]) in
  check_int "distinct rows" 4_001 (Relation.cardinality out);
  check_bool "first-occurrence order" true (rows_of out = flat_project r keep)

(* A partition far larger than the rest, of distinct candidates: its
   table must be sized from its own count. 20k candidates make 16
   partitions; 18k of them hash into partition 0. *)
let test_dedup_large_partition () =
  let n = 20_000 in
  let da = data_of_array (Array.init n Fun.id) in
  let a = Array.init n Fun.id in
  let h = Array.init n (fun i -> if i < 18_000 then i else (i lsl 40) lor i) in
  let kept = Ops.dedup ~da ~wa:1 ~ka:[| 0 |] ~db:no_data ~wb:0 ~kb:[||] ~a ~b:[||] ~h n in
  check_int "all distinct" n kept;
  check_bool "in order" true (a = Array.init n Fun.id);
  let dedup ~a ~h n = Ops.dedup ~da ~wa:1 ~ka:[| 0 |] ~db:no_data ~wb:0 ~kb:[||] ~a ~b:[||] ~h n in
  Alcotest.check_raises "a negative hash" (Invalid_argument "Ops.dedup: candidate out of range")
    (fun () -> ignore (dedup ~a:[| 0 |] ~h:[| -1 |] 1));
  Alcotest.check_raises "a row out of range" (Invalid_argument "Ops.dedup: candidate out of range")
    (fun () -> ignore (dedup ~a:[| n |] ~h:[| 0 |] 1));
  Alcotest.check_raises "too few candidates" (Invalid_argument "Ops.dedup: fewer than n candidates")
    (fun () -> ignore (dedup ~a:[| 0 |] ~h:[| 0 |] 2))

(* The fused kernel on a twin-pruned input: 6000 matches, each row of
   [r(0, 1)] meeting one row of [s(1, 2)], the build side (1000 rows).
   Projected on [{0, 2}], only the key [1] is dropped. The 500 rows
   [k < 500] of [s] have no twin on column 2; the other 500 come in
   twins of five, so 3000 matches are twin matches, and they project
   onto 600 rows: 3600 distinct rows. *)
let twin_pruned () =
  let r = relation [ 0; 1 ] (List.init 6000 (fun i -> [ i / 1000; i mod 1000 ])) in
  let s =
    relation [ 1; 2 ]
      (List.init 1000 (fun k -> [ k; (if k < 500 then k else 10_000 + (k mod 100)) ]))
  in
  (r, s, Schema.of_list [ 0; 2 ])

(* [join_project r s sub] against [project (natural_join r s) sub]: the
   same rows in the same order, with the same charge. Returns the
   fused span's [rows.join] and [rows.dedup] (the matches sent to the
   dedup, which names the kernel's path) and the rows kept. *)
let fused_path r s sub =
  let sink, spans = Telemetry.Sink.memory () in
  let t = Telemetry.create sink in
  let limits = Limits.create () in
  let out = Ops.join_project ~ctx:(Relalg.Ctx.create ~limits ~telemetry:t ()) r s sub in
  Telemetry.close t;
  let unfused_limits = Limits.create () in
  let ctx = Relalg.Ctx.create ~limits:unfused_limits () in
  let expected = Ops.project ~ctx (Ops.natural_join ~ctx r s) sub in
  Alcotest.(check (list (array int))) "the unfused pair's rows, in its order"
    (rows_of expected) (rows_of out);
  check_int "the unfused pair's charge" (Limits.total_charged unfused_limits)
    (Limits.total_charged limits);
  let attr a =
    match
      List.find_map
        (fun sp ->
          if Telemetry.Span.name sp = "op.join.project" then Telemetry.Span.attr sp a else None)
        (spans ())
    with
    | Some (Telemetry.Attr.Int n) -> n
    | _ -> Alcotest.failf "op.join.project has no %s" a
  in
  (attr "rows.join", attr "rows.dedup", Relation.cardinality out)

let check_path name (join, dedup, kept) (join', dedup', kept') =
  check_int (name ^ ": rows.join") join join';
  check_int (name ^ ": rows.dedup") dedup dedup';
  check_int (name ^ ": rows kept") kept kept'

(* One fixed case per path of the fused kernel, each past 2048 matches
   (at most that many take the all-twin path whatever the input). *)
let test_fused_paths () =
  (* Every column of the build side [s] is kept, and the probe side
     drops none: no build row has a twin, no match is deduplicated. *)
  let r = relation [ 0; 1 ] (List.init 3000 (fun i -> [ i; i mod 3 ])) in
  let s = relation [ 1; 2 ] (List.init 6 (fun i -> [ i mod 3; i ])) in
  check_path "no dedup needed" (6000, 0, 6000) (fused_path r s (Schema.of_list [ 2; 0; 1 ]));
  (* Twin and non-twin matches, with duplicates among the twins: only
     the twin matches are deduplicated. *)
  let r, s, sub = twin_pruned () in
  check_path "twin-pruned" (6000, 3000, 3600) (fused_path r s sub);
  (* The probe side [r] drops [x], no join key: both matches of the one
     build row project onto [z] alike, so every match is deduplicated,
     though no build row has a twin. The small case takes that path
     below 2048 matches anyway; the large one by the rule alone. *)
  let x = 0 and k = 1 and z = 2 in
  let s = relation [ k; z ] [ [ 1; 7 ] ] in
  let r = relation [ x; k ] [ [ 1; 1 ]; [ 2; 1 ] ] in
  check_path "fallback" (2, 2, 1) (fused_path r s (Schema.of_list [ z ]));
  let s = relation [ k; z ] [ [ 1; 7 ]; [ 2; 8 ] ] in
  let r = relation [ x; k ] (List.init 3000 (fun i -> [ i; 1 ])) in
  check_path "fallback past 2048 matches" (3000, 3000, 1)
    (fused_path r s (Schema.of_list [ z ]))

(* The totals [join_project r s sub] left when it raised [Deadline],
   under a clock that passes the deadline at its [k]-th read, for each
   [k] from 1 until the call finishes; the finished call must have
   charged the join's [n] rows and its [kept] rows and kept those. *)
let deadline_totals r s sub ~n ~kept =
  let run k =
    (* Reads are counted once the deadline is set. *)
    let reads = ref 0 and armed = ref false in
    let limits =
      Limits.create ~deadline_seconds:1.0
        ~clock:(fun () ->
          if !armed then incr reads;
          if !reads >= k then 10.0 else 0.0)
        ()
    in
    armed := true;
    match Ops.join_project ~ctx:(Relalg.Ctx.create ~limits ()) r s sub with
    | out -> (None, Limits.total_charged limits, Relation.cardinality out)
    | exception Limits.Abort reason -> (Some reason, Limits.total_charged limits, 0)
  in
  let rec sweep k acc =
    match run k with
    | None, total, card ->
      check_int "charged" (n + kept) total;
      check_int "kept" kept card;
      List.rev acc
    | Some reason, total, _ ->
      check_bool "deadline" true (reason = Limits.Deadline);
      sweep (k + 1) (total :: acc)
  in
  sweep 1 []

(* The polls [deadline_totals] saw, by phase: nothing charged before the
   join's charge, the join's [n] rows from its charge to the
   projection's settle, and [n] plus the kept rows in the fill. *)
let check_polls totals ~n ~kept ~between ~fill =
  let count t = List.length (List.filter (( = ) t) totals) in
  check_int "polls before the join's charge" 2 (count 0);
  check_int "polls between the join's charge and the settle" between (count n);
  check_int "polls in the fill" fill (count (n + kept));
  check_int "no other total" (List.length totals) (count 0 + count n + count (n + kept))

(* The fused kernel's passes poll the deadline: a clock that passes the
   deadline at its [k]-th read, for every [k], makes it raise
   [Deadline] at a poll of each phase. Between the join's charge and
   the settle the clock is read by the projection's tick, once per 1024
   rows of the build-side hash pass, once per 1024 candidates of each
   of the five passes over the [m] candidates (record, count, scatter,
   link, verify), and by the settle; the fill polls once per 1024 rows
   it writes. *)
let test_dedup_deadline_polls () =
  (* All twin: 12k matches (build side [s], 2000 rows, none of whose
     columns is kept), all sent to the dedup; 3000 distinct. *)
  let r = relation [ 0; 1 ] (List.init 3000 (fun i -> [ i; i mod 500 ])) in
  let s = relation [ 1; 2 ] (List.init 2000 (fun i -> [ i mod 500; i ])) in
  let n = 12_000 and kept = 3_000 in
  check_polls
    (deadline_totals r s (Schema.of_list [ 0 ]) ~n ~kept)
    ~n ~kept
    ~between:(1 + (2000 / 1024) + (5 * (n / 1024)) + 1)
    ~fill:(kept / 1024);
  (* Twin-pruned: 6000 matches, 3000 of them sent to the dedup, 3600
     distinct; 1000 build rows. *)
  let r, s, sub = twin_pruned () in
  let n = 6_000 and m = 3_000 and kept = 3_600 in
  check_polls (deadline_totals r s sub ~n ~kept) ~n ~kept
    ~between:(1 + (1000 / 1024) + (5 * (m / 1024)) + 1)
    ~fill:(kept / 1024)

(* Fuel trips at the projection's tick, after the join's charge and
   before any dedup pass, as it did before the fused kernel
   partitioned, on an all-twin input and on a twin-pruned one. *)
let test_dedup_fuel () =
  let fuel_trip name r s sub n =
    let limits = Limits.create ~fuel:1 () in
    Alcotest.check_raises (name ^ ": fuel") (Limits.Abort Limits.Fuel) (fun () ->
        ignore (Ops.join_project ~ctx:(Relalg.Ctx.create ~limits ()) r s sub));
    check_int (name ^ ": the join's rows were charged") n (Limits.total_charged limits)
  in
  let r = relation [ 0; 1 ] (List.init 3000 (fun i -> [ i; i mod 500 ])) in
  let s = relation [ 1; 2 ] (List.init 2000 (fun i -> [ i mod 500; i ])) in
  fuel_trip "all twin" r s (Schema.of_list [ 0 ]) 12_000;
  let r, s, sub = twin_pruned () in
  fuel_trip "twin-pruned" r s sub 6_000

(* An arena created with no size hint holds no storage until [extend] or
   [add] sizes it, then grows as before. *)
let test_arena_no_hint () =
  let a = Arena.create ~size_hint:0 3 in
  check_int "no storage" 0 (Bigarray.Array1.dim (Arena.data a));
  check_bool "mem on empty" false (Arena.mem a [| 1; 2; 3 |]);
  let base = Arena.extend a 2 in
  check_int "extend sizes it exactly" 6 (Bigarray.Array1.dim (Arena.data a));
  check_int "first row at 0" 0 base;
  Array.iteri (fun i v -> Bigarray.Array1.set (Arena.data a) i v) [| 1; 2; 3; 4; 5; 6 |];
  for k = 0 to 99 do
    check_bool "fresh" true (Arena.add a [| k; k; k + 100 |])
  done;
  check_bool "extended rows stay distinct" false (Arena.add a [| 4; 5; 6 |]);
  check_int "count" 102 (Arena.count a);
  let b = Arena.create ~size_hint:0 3 in
  check_bool "add to an empty arena" true (Arena.add b [| 1; 2; 3 |]);
  check_int "first add makes room for 8" 24 (Bigarray.Array1.dim (Arena.data b));
  let z = Arena.create ~size_hint:0 0 in
  check_bool "0-ary add" true (Arena.add z [||]);
  check_bool "0-ary duplicate" false (Arena.add z [||]);
  check_int "0-ary count" 1 (Arena.count z)

(* An arena with spare capacity: a size hint of 100 rows and three
   [add]s leave 97 rows of cells unspecified. Every reader sees exactly
   the three rows: the relation's iteration, the generic join's trie and
   a copy, whose storage is its own. *)
let test_arena_spare_capacity () =
  let rows = [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] in
  let rel = Relation.create ~size_hint:100 (Schema.of_list [ 0; 1 ]) in
  List.iter (fun r -> ignore (Relation.add rel (Tuple.of_list r))) rows;
  let a = Relation.arena rel in
  check_int "spare capacity" 200 (Bigarray.Array1.dim (Arena.data a));
  let seen = ref [] in
  Relation.iter (fun t -> seen := Tuple.to_list t :: !seen) rel;
  Alcotest.(check (list (list int))) "Relation.iter" rows (List.rev !seen);
  let trie = Wcoj.Trie.build ~depth_of_var:Fun.id rel in
  check_int "trie rows" 3 (Wcoj.Trie.rows trie);
  Alcotest.(check (list (list int))) "Trie.build" (List.sort compare rows)
    (List.init 3 (fun row -> List.init 2 (fun level -> Wcoj.Trie.value trie ~level ~row)));
  let c = Arena.copy a in
  Alcotest.(check (list (list int))) "Arena.copy" rows
    (List.rev (Arena.fold (fun t acc -> Array.to_list t :: acc) c []));
  check_bool "the copy's index" true (Arena.mem c [| 1; 2 |] && not (Arena.mem c [| 0; 0 |]));
  Bigarray.Array1.set (Arena.data c) 0 99;
  check_int "a write to the copy" 99 (Arena.get c 0 0);
  check_int "does not show in the original" 3 (Arena.get a 0 0);
  check_bool "the copy grows on its own" true (Arena.add c [| 5; 5 |] && not (Arena.mem a [| 5; 5 |]))

(* [release] frees an arena's storage at once and leaves the arena
   empty. A [data] value fetched before the release reads as zero-length
   afterwards exactly when the storage was freed there and then, rather
   than left to the GC: storage that a view shares cannot be. *)
let test_arena_release () =
  let rows a = List.rev (Arena.fold (fun t acc -> Array.to_list t :: acc) a []) in
  let a = Arena.create ~size_hint:0 2 in
  let base = Arena.extend a 3 in
  let d = Arena.data a in
  Array.iteri (fun i v -> Bigarray.Array1.set d (base + i) v) [| 1; 2; 3; 4; 5; 6 |];
  check_bool "indexed" true (Arena.mem a [| 3; 4 |]);
  check_int "release returns the live cells" 6 (Arena.release a);
  check_int "storage freed" 0 (Bigarray.Array1.dim d);
  check_int "no rows" 0 (Arena.count a);
  check_int "no storage" 0 (Bigarray.Array1.dim (Arena.data a));
  check_bool "no index" false (Arena.mem a [| 3; 4 |]);
  Alcotest.(check (list (list int))) "reads as empty" [] (rows a);
  check_int "a second release frees nothing" 0 (Arena.release a);
  check_int "a second release leaves it empty" 0 (Arena.count a);
  let base = Arena.extend a 2 in
  check_int "extend after release: first row at 0" 0 base;
  check_int "extend after release: fresh storage" 4 (Bigarray.Array1.dim (Arena.data a));
  Array.iteri (fun i v -> Bigarray.Array1.set (Arena.data a) i v) [| 7; 8; 9; 10 |];
  check_bool "add after extend" true (Arena.add a [| 1; 1 |]);
  check_bool "extended rows indexed" false (Arena.add a [| 9; 10 |]);
  Alcotest.(check (list (list int))) "rows after extend" [ [ 7; 8 ]; [ 9; 10 ]; [ 1; 1 ] ] (rows a);
  check_int "release after extend and add" 6 (Arena.release a);
  check_bool "add after release" true (Arena.add a [| 5; 6 |]);
  check_int "add after release: fresh storage for 8 rows" 16 (Bigarray.Array1.dim (Arena.data a));
  check_bool "add after release: indexed" false (Arena.add a [| 5; 6 |]);
  Alcotest.(check (list (list int))) "rows after add" [ [ 5; 6 ] ] (rows a);
  (* Growing through [add] copies the live rows into larger storage; the
     copy once went through [Bigarray.Array1.sub] views, which left the
     storage shared and unreleasable. *)
  let g = Arena.create ~size_hint:8 2 in
  for k = 0 to 99 do
    ignore (Arena.add g [| k; k + 1 |])
  done;
  let d = Arena.data g in
  check_int "grown to 128 rows" 256 (Bigarray.Array1.dim d);
  check_int "grown rows kept" 99 (Arena.get g 99 0);
  let c = Arena.copy g in
  check_int "release a grown arena" 200 (Arena.release g);
  check_int "grown storage freed" 0 (Bigarray.Array1.dim d);
  check_int "the copy keeps its rows" 100 (Arena.count c);
  check_bool "the copy's index" true (Arena.mem c [| 42; 43 |]);
  check_int "release the copy" 200 (Arena.release c);
  let z = Arena.create 0 in
  ignore (Arena.add z [||]);
  check_int "0-ary release: no cells" 0 (Arena.release z);
  check_int "0-ary release: no rows" 0 (Arena.count z);
  check_bool "0-ary add after release" true (Arena.add z [||])

(* The allocator policy keeps freed arena storage mapped: 20 rounds of
   eight ~1 MiB arenas, each round dropped and collected, fault fewer
   pages together than the first round alone, which faults its 8 MiB
   in. Without the policy glibc hands each round back to the kernel and
   every round faults it in again. The case runs first, so the first
   round finds no free heap that earlier cases left. Skipped where
   /proc/self/stat cannot be read and off glibc. *)
let minor_faults () =
  match In_channel.with_open_bin "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
    (* minflt is the 8th field after the parenthesised command name. *)
    let after = String.index_from stat (String.rindex stat ')') ' ' + 1 in
    let fields = String.split_on_char ' ' (String.sub stat after (String.length stat - after)) in
    match List.nth_opt fields 7 with Some f -> int_of_string_opt f | None -> None)

let[@inline never] allocate_arenas () =
  let arenas =
    List.init 8 (fun _ ->
        let a = Arena.create ~size_hint:0 4 in
        ignore (Arena.extend a 32_768);
        (* Fill the claimed rows, as a kernel does: storage is allocated
           uninitialised, so only writes fault its pages in. *)
        Bigarray.Array1.fill (Arena.data a) 1;
        a)
  in
  ignore (Sys.opaque_identity arenas)

let test_freed_storage_reused () =
  if Arena.malloc_policy = Arena.Unsupported then Alcotest.skip ();
  check_bool "glibc accepted the policy" true (Arena.malloc_policy = Arena.Pinned);
  let round () =
    let before = minor_faults () in
    allocate_arenas ();
    Gc.full_major ();
    match (before, minor_faults ()) with
    | Some b, Some a -> a - b
    | _ -> Alcotest.skip ()
  in
  let first = round () in
  let rest = List.fold_left (fun acc _ -> acc + round ()) 0 (List.init 20 Fun.id) in
  if rest >= first then
    Alcotest.failf "rounds 2-21 faulted %d pages, round 1 faulted %d" rest first

(* A large output released once read is reused, not refaulted: a
   42 MiB arena, above glibc's 32 MiB mmap ceiling, is filled and
   released, then another of the same size is filled. [M_MMAP_MAX 0]
   serves both from the heap and [release] frees the first at once, so
   the second reuses its pages: it must fault fewer than 5% of the
   first's. With either missing, the first is unmapped (or still held)
   and the second faults all its pages in again. *)
let fill_arena rows =
  let a = Arena.create ~size_hint:0 4 in
  ignore (Arena.extend a rows);
  Bigarray.Array1.fill (Arena.data a) 1;
  a

let test_large_output_reused () =
  if Arena.malloc_policy = Arena.Unsupported then Alcotest.skip ();
  let rows = 42 * 1024 * 1024 / (4 * 8) in
  let faults f =
    match (minor_faults (), f (), minor_faults ()) with
    | Some b, a, Some e -> (a, e - b)
    | _ -> Alcotest.skip ()
  in
  let first, first_faults = faults (fun () -> fill_arena rows) in
  ignore (Arena.release first);
  let second, second_faults = faults (fun () -> fill_arena rows) in
  ignore (Arena.release second);
  if 20 * second_faults >= first_faults then
    Alcotest.failf "the second arena faulted %d pages, the first %d" second_faults first_faults

let () =
  Alcotest.run "relalg"
    [
      ( "memory policy",
        [
          Alcotest.test_case "freed storage reused" `Quick test_freed_storage_reused;
          Alcotest.test_case "large output reused" `Quick test_large_output_reused;
        ] );
      ( "symbol",
        [
          Alcotest.test_case "roundtrip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "growth" `Quick test_symbol_growth;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "project/concat" `Quick test_tuple_project_concat;
          prop_tuple_hash_consistent;
          prop_tuple_compare_total;
        ] );
      ( "schema",
        [
          Alcotest.test_case "construction" `Quick test_schema_construction;
          Alcotest.test_case "set operations" `Quick test_schema_set_operations;
          Alcotest.test_case "positions" `Quick test_schema_positions;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_relation_set_semantics;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "reorder" `Quick test_relation_reorder;
          Alcotest.test_case "equal modulo order" `Quick
            test_relation_equal_modulo_order_differs;
        ] );
      ( "joins",
        [
          Alcotest.test_case "natural join" `Quick test_natural_join_basic;
          Alcotest.test_case "disjoint join is product" `Quick
            test_natural_join_no_shared_is_product;
          Alcotest.test_case "product rejects shared" `Quick
            test_product_rejects_shared;
          Alcotest.test_case "join with empty" `Quick test_join_empty;
          Alcotest.test_case "equijoin" `Quick test_equijoin;
          prop_join_commutative;
          prop_join_associative;
          prop_join_idempotent;
          prop_semijoin_is_filtered_join;
          prop_semijoin_antijoin_partition;
          prop_equijoin_is_renamed_natural_join;
        ] );
      ( "unary ops",
        [
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "project away" `Quick test_project_away;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          prop_projection_monotone;
          prop_select_project_commute;
          prop_rename_roundtrip;
          prop_union_laws;
          prop_inter_via_diff;
          prop_project_composition;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "round trip" `Quick test_io_roundtrip;
          prop_io_roundtrip;
          Alcotest.test_case "0-ary relation" `Quick test_io_zero_ary;
          Alcotest.test_case "file round trip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_io_rejects_garbage;
          prop_io_corruption_fails_cleanly;
        ] );
      ( "limits & stats",
        [
          Alcotest.test_case "cardinality cap" `Quick test_limits_cardinality;
          Alcotest.test_case "total budget" `Quick test_limits_total;
          Alcotest.test_case "stats recording" `Quick test_stats_recording;
          prop_charge_rows_per_row;
          prop_kernels_under_limits;
          prop_join_project_is_fused_pair;
          Alcotest.test_case "join_project reports the join" `Quick
            test_join_project_reports_join;
          Alcotest.test_case "deadline during a fill" `Quick
            test_deadline_in_fill;
        ] );
      ( "dedup",
        [
          prop_dedup_is_flat ~small:false;
          prop_dedup_is_flat ~small:true;
          prop_project_is_flat;
          prop_join_project_is_flat;
          Alcotest.test_case "empty keep set" `Quick test_dedup_empty_keep;
          Alcotest.test_case "skewed input" `Quick test_dedup_skewed;
          Alcotest.test_case "one large partition" `Quick test_dedup_large_partition;
          Alcotest.test_case "fused kernel paths" `Quick test_fused_paths;
          Alcotest.test_case "deadline polls" `Quick test_dedup_deadline_polls;
          Alcotest.test_case "fuel" `Quick test_dedup_fuel;
        ] );
      ( "arena",
        [
          Alcotest.test_case "0-ary tuples" `Quick test_arena_zero_ary;
          Alcotest.test_case "no size hint" `Quick test_arena_no_hint;
          Alcotest.test_case "spare capacity" `Quick test_arena_spare_capacity;
          Alcotest.test_case "release" `Quick test_arena_release;
          Alcotest.test_case "wide rows" `Quick test_arena_wide_rows;
          Alcotest.test_case "growth and rehash (70k rows)" `Quick
            test_arena_many_rows;
          Alcotest.test_case "project dedup" `Quick test_project_dedup;
          prop_arena_lazy_index 0;
          prop_arena_lazy_index 1;
          prop_arena_lazy_index 5;
          prop_project_first_occurrence 0;
          prop_project_first_occurrence 1;
          prop_project_first_occurrence 5;
        ] );
      cursor_suite;
      oracle_suite;
      fixture_suite;
    ]
