module goptm/bench

go 1.22

require goptm v0.0.0

replace goptm => ../
