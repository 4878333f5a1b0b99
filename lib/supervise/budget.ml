type t = {
  deadline_seconds : float option;
  max_total_tuples : int;
  max_cardinality : int;
  fuel : int;
}

let default =
  {
    deadline_seconds = None;
    max_total_tuples = 20_000_000;
    max_cardinality = 2_000_000;
    fuel = max_int;
  }

let unlimited =
  {
    deadline_seconds = None;
    max_total_tuples = max_int;
    max_cardinality = max_int;
    fuel = max_int;
  }

let with_deadline s t = { t with deadline_seconds = Some s }
let with_fuel fuel t = { t with fuel }
let with_max_total max_total_tuples t = { t with max_total_tuples }
let with_max_cardinality max_cardinality t = { t with max_cardinality }

let to_limits ?clock t =
  Relalg.Limits.create ~max_tuples:t.max_cardinality
    ~max_total:t.max_total_tuples ~fuel:t.fuel
    ?deadline_seconds:t.deadline_seconds ?clock ()

let pp ppf t =
  let cap ppf n =
    if n = max_int then Format.pp_print_string ppf "inf"
    else Format.pp_print_int ppf n
  in
  Format.fprintf ppf "deadline=%s total<=%a card<=%a fuel<=%a"
    (match t.deadline_seconds with
    | None -> "none"
    | Some s -> Printf.sprintf "%.3fs" s)
    cap t.max_total_tuples cap t.max_cardinality cap t.fuel
