type t = {
  stats : Stats.t option;
  limits : Limits.t option;
  telemetry : Telemetry.t option;
  pool : Parallel.Pool.t option;
}

let null = { stats = None; limits = None; telemetry = None; pool = None }
let create ?stats ?limits ?telemetry ?pool () =
  { stats; limits; telemetry; pool }
let stats t = t.stats
let limits t = t.limits
let telemetry t = t.telemetry
let pool t = t.pool
let with_stats t stats = { t with stats = Some stats }
let with_limits t limits = { t with limits = Some limits }
let with_telemetry t telemetry = { t with telemetry = Some telemetry }
