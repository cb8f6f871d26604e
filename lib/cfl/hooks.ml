type dir = Bwd | Fwd

type target = Parcfl_pag.Pag.var * Parcfl_pag.Ctx.t

type finished = { cost : int; targets : target array }

type lookup = {
  unfinished : int option;
  finished : finished option;
}

let no_jmp = { unfinished = None; finished = None }

type t = {
  lookup :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> steps:int -> worker:int ->
    lookup;
  record_finished :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> cost:int ->
    targets:target array -> unit;
  record_unfinished :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> s:int -> unit;
}
