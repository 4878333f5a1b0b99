type t = { schema : Schema.t; arena : Arena.t }

let create ?(size_hint = 64) schema =
  { schema; arena = Arena.create ~size_hint (Schema.arity schema) }

let arena t = t.arena
let schema t = t.schema
let arity t = Schema.arity t.schema
let cardinality t = Arena.count t.arena
let is_empty t = cardinality t = 0

let add t tup =
  if Tuple.arity tup <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.add: tuple arity %d, schema arity %d"
         (Tuple.arity tup) (Schema.arity t.schema));
  Arena.add t.arena tup

let mem t tup =
  Tuple.arity tup = Schema.arity t.schema && Arena.mem t.arena tup

let iter f t = Arena.iter f t.arena
let fold f t init = Arena.fold f t.arena init
let to_list t = fold List.cons t []
let to_sorted_list t = List.sort Tuple.compare (to_list t)

let to_sorted_list_in t attrs =
  let target = Schema.of_list attrs in
  if not (Schema.equal_as_set t.schema target) then
    invalid_arg "Relation.to_sorted_list_in: not a permutation of the schema";
  let pos = Schema.positions target t.schema in
  List.sort Tuple.compare (fold (fun tup acc -> Tuple.project tup pos :: acc) t [])

let to_seq t =
  let a = t.arena in
  let rec rows i () =
    if i >= Arena.count a then Seq.Nil
    else Seq.Cons (Arena.read a i, rows (i + 1))
  in
  rows 0

let of_tuples schema tuples =
  let t = create ~size_hint:(max 16 (List.length tuples)) schema in
  List.iter (fun tup -> ignore (add t tup)) tuples;
  t

let of_list schema rows = of_tuples schema (List.map Tuple.of_list rows)
let copy ?schema t =
  let schema =
    match schema with
    | None -> t.schema
    | Some s ->
      if Schema.arity s <> Schema.arity t.schema then
        invalid_arg "Relation.copy: the schema's arity differs";
      s
  in
  { schema; arena = Arena.copy t.arena }

let equal a b =
  Schema.equal a.schema b.schema
  && cardinality a = cardinality b
  && fold (fun tup ok -> ok && mem b tup) a true

let reorder t target =
  if not (Schema.equal_as_set t.schema target) then
    invalid_arg "Relation.reorder: schemas are not permutations";
  if Schema.equal t.schema target then copy t
  else
    let positions = Schema.positions target t.schema in
    let out = create ~size_hint:(cardinality t) target in
    iter (fun tup -> ignore (add out (Tuple.project tup positions))) t;
    out

let canonical_schema t =
  Schema.of_list (List.sort Stdlib.compare (Schema.attrs t.schema))

let equal_modulo_order a b =
  Schema.equal_as_set a.schema b.schema
  && equal (reorder a (canonical_schema a)) (reorder b (canonical_schema b))

let pp ?namer ?(max_rows = 20) () ppf t =
  Format.fprintf ppf "@[<v>%a (%d tuples)" (Schema.pp ?namer ()) t.schema
    (cardinality t);
  let rows = to_sorted_list t in
  let shown = List.filteri (fun i _ -> i < max_rows) rows in
  List.iter (fun tup -> Format.fprintf ppf "@,  %a" Tuple.pp tup) shown;
  if List.length rows > max_rows then Format.fprintf ppf "@,  ...";
  Format.fprintf ppf "@]"
